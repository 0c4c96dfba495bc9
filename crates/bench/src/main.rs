//! `meterstick-bench <figure> [flags]`: regenerates one table or figure of
//! the paper, or runs one ablation or probe. Run it without arguments for
//! the list; see the `meterstick_bench` crate docs for the flags.

use std::process::ExitCode;

use meterstick_bench::{print_header, Cli};

fn main() -> ExitCode {
    match Cli::parse(std::env::args().skip(1)) {
        Ok(((_, title, run), cli)) => {
            print_header(title);
            run(&cli);
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
