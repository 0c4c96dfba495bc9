//! A hand-rolled, comment- and string-aware scanner for Rust source.
//!
//! The build container is offline, so `detlint` cannot lean on `syn` the way
//! a networked lint would — the same discipline as the vendored dependency
//! shims. Instead this module does the one lexical job the rule engine
//! actually needs: split a source file into *code* and *comments*, with the
//! bodies of string/char literals blanked out of the code channel. Rule
//! patterns then match on tokens that are guaranteed to be real code —
//! `thread_rng` inside a doc comment or an error-message string can never
//! fire — while waiver annotations are parsed from the comment channel.
//!
//! Handled forms: line comments, (nested) block comments, string literals
//! with escapes, raw strings `r"…"`/`r#"…"#` (any hash depth), byte and
//! byte-raw strings, char and byte-char literals, and lifetimes (`'a` is
//! *not* a char literal). Multi-line strings and block comments carry their
//! state across lines.

/// One physical source line after scanning.
#[derive(Debug, Clone, Default)]
pub struct ScannedLine {
    /// The line's code with comments removed and literal bodies blanked.
    /// Quote characters are kept so the token stream still sees literal
    /// boundaries.
    code: String,
    /// Text of every comment (or trailing fragment of a multi-line block
    /// comment) that ends or continues on this line.
    pub comments: Vec<String>,
}

impl ScannedLine {
    /// Returns `true` when the line contains no code tokens at all (only
    /// whitespace and/or comments). Used to attach standalone waiver
    /// comments to the next code line.
    #[must_use]
    pub fn is_comment_only(&self) -> bool {
        self.code.trim().is_empty()
    }
}

/// A whole source file after scanning; lines are 0-indexed here and
/// 1-indexed everywhere user-facing.
#[derive(Debug, Clone, Default)]
pub struct ScannedFile {
    /// The scanned lines, in order.
    pub lines: Vec<ScannedLine>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

/// Scans `source` into per-line code and comment channels.
#[must_use]
pub fn scan(source: &str) -> ScannedFile {
    let chars: Vec<char> = source.chars().collect();
    let n = chars.len();
    let mut lines: Vec<ScannedLine> = Vec::new();
    let mut line = ScannedLine::default();
    let mut comment = String::new();
    let mut mode = Mode::Code;
    let mut i = 0usize;
    // The previous code character, used to tell a raw-string prefix from an
    // identifier that merely ends in `r` or `b`.
    let mut prev_code: char = ' ';

    while i < n {
        let c = chars[i];
        if c == '\n' {
            match mode {
                Mode::LineComment => {
                    line.comments.push(std::mem::take(&mut comment));
                    mode = Mode::Code;
                }
                Mode::BlockComment(_) => {
                    // Attribute the fragment so single-line `/* … */` waivers
                    // land on their own line; reset for the next line.
                    line.comments.push(std::mem::take(&mut comment));
                }
                _ => {}
            }
            lines.push(std::mem::take(&mut line));
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                let next = chars.get(i + 1).copied().unwrap_or(' ');
                if c == '/' && next == '/' {
                    mode = Mode::LineComment;
                    comment.clear();
                    i += 2;
                } else if c == '/' && next == '*' {
                    mode = Mode::BlockComment(1);
                    comment.clear();
                    i += 2;
                } else if c == '"' {
                    line.code.push('"');
                    mode = Mode::Str;
                    prev_code = '"';
                    i += 1;
                } else if (c == 'r' || c == 'b') && !is_ident_char(prev_code) {
                    // Possible raw/byte literal prefix: r", r#", br", b", b'.
                    if let Some((hashes, consumed)) = raw_string_start(&chars, i) {
                        line.code.push('"');
                        mode = Mode::RawStr(hashes);
                        prev_code = '"';
                        i += consumed;
                    } else if c == 'b' && next == '"' {
                        line.code.push('"');
                        mode = Mode::Str;
                        prev_code = '"';
                        i += 2;
                    } else if c == 'b' && next == '\'' {
                        i += 1 + char_literal_len(&chars, i + 1);
                        prev_code = '\'';
                    } else {
                        line.code.push(c);
                        prev_code = c;
                        i += 1;
                    }
                } else if c == '\'' {
                    let len = char_literal_len(&chars, i);
                    if len > 0 {
                        // A real char literal: blank its body.
                        i += len;
                        prev_code = '\'';
                    } else {
                        // A lifetime; keep the tick out of the code channel
                        // (the following identifier is harmless).
                        line.code.push(' ');
                        prev_code = '\'';
                        i += 1;
                    }
                } else {
                    line.code.push(c);
                    prev_code = c;
                    i += 1;
                }
            }
            Mode::LineComment => {
                comment.push(c);
                i += 1;
            }
            Mode::BlockComment(depth) => {
                let next = chars.get(i + 1).copied().unwrap_or(' ');
                if c == '*' && next == '/' {
                    if depth == 1 {
                        line.comments.push(std::mem::take(&mut comment));
                        mode = Mode::Code;
                    } else {
                        mode = Mode::BlockComment(depth - 1);
                    }
                    i += 2;
                } else if c == '/' && next == '*' {
                    mode = Mode::BlockComment(depth + 1);
                    comment.push_str("/*");
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' && chars.get(i + 1) != Some(&'\n') {
                    i += 2; // Skip the escaped character (even a quote).
                } else if c == '"' {
                    line.code.push('"');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    i += 1; // Blank the literal body.
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' && raw_string_ends(&chars, i, hashes) {
                    line.code.push('"');
                    mode = Mode::Code;
                    i += 1 + hashes as usize;
                } else {
                    i += 1;
                }
            }
        }
    }
    match mode {
        Mode::LineComment | Mode::BlockComment(_) => {
            line.comments.push(comment);
        }
        _ => {}
    }
    if !line.code.is_empty() || !line.comments.is_empty() {
        lines.push(line);
    }
    ScannedFile { lines }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// If `chars[i..]` starts a raw (or byte-raw) string literal, returns the
/// hash depth and the number of characters up to and including the opening
/// quote.
fn raw_string_start(chars: &[char], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((hashes, j + 1 - i))
    } else {
        None
    }
}

/// Returns `true` when the quote at `chars[i]` closes a raw string with the
/// given hash depth.
fn raw_string_ends(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Length in characters of the char literal starting at `chars[i]` (which
/// must be `'`), or 0 when it is a lifetime rather than a literal.
fn char_literal_len(chars: &[char], i: usize) -> usize {
    match chars.get(i + 1) {
        Some('\\') => {
            // Escaped char: scan to the closing tick.
            let mut j = i + 2;
            while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
                j += 1;
            }
            j + 1 - i
        }
        Some(_) if chars.get(i + 2) == Some(&'\'') => 3,
        _ => 0,
    }
}

/// A code token: an identifier/number word or a single punctuation
/// character, with `::` kept as one token for path matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token text.
    pub text: String,
    /// 1-indexed source line the token starts on.
    pub line: usize,
}

/// Tokenizes the code channel of a scanned file.
#[must_use]
pub fn tokenize(file: &ScannedFile) -> Vec<Token> {
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if is_ident_char(c) {
                let start = i;
                while i < chars.len() && is_ident_char(chars[i]) {
                    i += 1;
                }
                out.push(Token {
                    text: chars[start..i].iter().collect(),
                    line: lineno,
                });
            } else if c == ':' && chars.get(i + 1) == Some(&':') {
                out.push(Token {
                    text: "::".to_string(),
                    line: lineno,
                });
                i += 2;
            } else {
                out.push(Token {
                    text: c.to_string(),
                    line: lineno,
                });
                i += 1;
            }
        }
    }
    out
}

/// Marks the tokens of every `#[cfg(test)]` item, attribute included.
#[must_use]
pub fn test_mask(tokens: &[Token]) -> Vec<bool> {
    const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        let is_attr = tokens.len() - i >= CFG_TEST.len()
            && CFG_TEST.iter().zip(&tokens[i..]).all(|(p, t)| t.text == *p);
        if is_attr {
            let end = item_end(tokens, i + CFG_TEST.len());
            mask[i..end].fill(true);
            i = end;
        } else {
            i += 1;
        }
    }
    mask
}

/// The index one past the item that starts at `tokens[start]`: its first
/// top-level `;` or `,` (a statement, a `use`, a field), the `}` closing
/// its first top-level brace (a module, a function, a block), or the
/// unmatched `}` of the enclosing block (a last field).
fn item_end(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0i32;
    for (j, tok) in tokens.iter().enumerate().skip(start) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
                if depth < 0 {
                    return j;
                }
            }
            ";" | "," if depth == 0 => return j + 1,
            _ => {}
        }
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> String {
        scan(src)
            .lines
            .iter()
            .map(|l| l.code.clone())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn strips_line_and_block_comments() {
        let src = "let x = 1; // thread_rng here\nlet y = /* SystemTime */ 2;\n";
        let code = code_of(src);
        assert!(!code.contains("thread_rng"));
        assert!(!code.contains("SystemTime"));
        assert!(code.contains("let x = 1;"));
        assert!(code.contains("let y =  2;"));
        let scanned = scan(src);
        assert_eq!(scanned.lines[0].comments.len(), 1);
        assert!(scanned.lines[0].comments[0].contains("thread_rng"));
    }

    #[test]
    fn blanks_string_literal_bodies() {
        let src = "let s = \"Instant::now inside a string\";\nlet r = r#\"dbg! in raw\"#;\n";
        let code = code_of(src);
        assert!(!code.contains("Instant"));
        assert!(!code.contains("dbg"));
        assert!(code.contains('"'));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let code = code_of("let s = \"a\\\"b unsafe c\"; let t = 1;");
        assert!(!code.contains("unsafe"));
        assert!(code.contains("let t = 1;"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let code = code_of("fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'y'; let d = '\\n';");
        assert!(code.contains("fn f"));
        assert!(code.contains("str { x }"));
        assert!(!code.contains('y'), "char literal body must be blanked");
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let code = code_of("/* outer /* inner */ still comment */ let z = 3;");
        assert!(code.contains("let z = 3;"));
        assert!(!code.contains("inner"));
    }

    #[test]
    fn multiline_strings_stay_blanked() {
        let code = code_of("let s = \"line one\nthread_rng line two\";\nlet after = 4;");
        assert!(!code.contains("thread_rng"));
        assert!(code.contains("let after = 4;"));
    }

    #[test]
    fn line_continuations_in_strings_keep_line_numbers() {
        let toks = tokenize(&scan("let s = \"one \\\n two\";\nlet after = 4;"));
        let after = toks.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 3);
    }

    #[test]
    fn identifier_ending_in_r_is_not_raw_string() {
        let code = code_of("for r in 0..3 { tr(\"x\"); }");
        assert!(code.contains("for r in 0..3"));
    }

    #[test]
    fn tokenizer_combines_path_separators() {
        let toks = tokenize(&scan("thread::spawn(|| {});"));
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(&texts[..3], &["thread", "::", "spawn"]);
    }

    #[test]
    fn tokens_carry_line_numbers() {
        let toks = tokenize(&scan("let a = 1;\nlet b = 2;"));
        assert_eq!(toks.first().unwrap().line, 1);
        assert_eq!(toks.last().unwrap().line, 2);
    }
}
