//! Result presentation: aligned text tables, CSV export and ASCII plots.
//!
//! Meterstick's Data Visualization component "automatically outputs basic
//! plots for MLG performance and performance variability" (Figure 5,
//! component 10). In this reproduction the benchmark binaries print aligned
//! text tables and simple ASCII charts and can emit CSV for external plotting
//! tools.

use meterstick_metrics::stats::BoxplotSummary;

/// Renders an aligned plain-text table.
///
/// Every row must have the same number of cells as `headers`; shorter rows
/// are padded with empty cells.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let columns = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(columns) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, width) in widths.iter().enumerate() {
            let cell = cells.get(i).map_or("", |c| c.as_str());
            line.push_str(&format!("{cell:<width$}"));
            if i + 1 < widths.len() {
                line.push_str("  ");
            }
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1))));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

fn csv_escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Renders one CSV row (no trailing newline). Cells containing commas,
/// quotes or newlines are quoted. Streaming sinks use this to emit rows as
/// results complete; [`to_csv`] uses it for whole tables.
#[must_use]
pub fn csv_row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| csv_escape(c))
        .collect::<Vec<_>>()
        .join(",")
}

/// Renders rows as CSV with a header line. Cells containing commas or quotes
/// are quoted.
#[must_use]
pub fn to_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| csv_escape(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&csv_row(row));
        out.push('\n');
    }
    out
}

/// Renders a horizontal ASCII bar scaled so that `max_value` fills `width`
/// characters.
#[must_use]
pub fn ascii_bar(value: f64, max_value: f64, width: usize) -> String {
    if max_value <= 0.0 || width == 0 || value <= 0.0 {
        return String::new();
    }
    let filled = ((value / max_value) * width as f64).round() as usize;
    "#".repeat(filled.clamp(1, width))
}

/// Renders a box-and-whisker summary as a one-line ASCII gauge spanning
/// `[0, max_value]`, e.g. `|---[==|==]-------    |`.
#[must_use]
pub fn ascii_boxplot(summary: &BoxplotSummary, max_value: f64, width: usize) -> String {
    if max_value <= 0.0 || width < 10 {
        return String::new();
    }
    let scale = |v: f64| -> usize {
        (((v / max_value) * (width - 1) as f64).round() as usize).min(width - 1)
    };
    let mut chars = vec![' '; width];
    let lo = scale(summary.whisker_low);
    let hi = scale(summary.whisker_high);
    let q1 = scale(summary.q1);
    let q3 = scale(summary.q3);
    let med = scale(summary.median);
    for c in chars.iter_mut().take(hi + 1).skip(lo) {
        *c = '-';
    }
    for c in chars.iter_mut().take(q3 + 1).skip(q1) {
        *c = '=';
    }
    chars[q1] = '[';
    chars[q3.max(q1)] = ']';
    chars[med] = '|';
    format!("|{}|", chars.into_iter().collect::<String>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned_and_complete() {
        let table = render_table(
            &["Server", "Workload", "ISR"],
            &[
                vec!["Minecraft".into(), "Control".into(), "0.010".into()],
                vec!["PaperMC".into(), "TNT".into(), "0.120".into()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Server"));
        assert!(lines[2].contains("Minecraft"));
        assert!(lines[3].contains("PaperMC"));
        // Columns align: "Control" and "TNT" start at the same offset.
        let col = lines[2].find("Control").unwrap();
        assert_eq!(lines[3].find("TNT").unwrap(), col);
    }

    #[test]
    fn short_rows_are_padded() {
        let table = render_table(&["a", "b"], &[vec!["only".into()]]);
        assert!(table.lines().count() == 3);
    }

    #[test]
    fn csv_escapes_special_cells() {
        let csv = to_csv(
            &["name", "note"],
            &[vec!["x".into(), "hello, \"world\"".into()]],
        );
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("\"hello, \"\"world\"\"\""));
    }

    #[test]
    fn bars_scale_with_value() {
        assert_eq!(ascii_bar(0.0, 10.0, 20), "");
        assert_eq!(ascii_bar(5.0, 10.0, 20).len(), 10);
        assert_eq!(ascii_bar(10.0, 10.0, 20).len(), 20);
        assert_eq!(ascii_bar(100.0, 10.0, 20).len(), 20, "bars are clamped");
    }

    #[test]
    fn boxplot_gauge_contains_the_box() {
        let summary = BoxplotSummary {
            whisker_low: 10.0,
            q1: 20.0,
            median: 25.0,
            q3: 30.0,
            whisker_high: 60.0,
            mean: 27.0,
            max: 80.0,
            min: 10.0,
        };
        let gauge = ascii_boxplot(&summary, 100.0, 50);
        assert!(gauge.contains('['));
        assert!(gauge.contains(']'));
        assert!(gauge.contains('|'));
        assert_eq!(gauge.len(), 52);
    }
}
