//! `paper <figure>...|all [--jobs N]`: prints the named figures of
//! `cta_bench::figures` and saves their tables under `results/`.

use std::process::ExitCode;

use cta_bench::figures::{paper_usage, Paper};
use cta_bench::{cli_main, emit};

fn main() -> ExitCode {
    cli_main(&paper_usage(), || {
        Paper::parse(std::env::args().skip(1))?.run(|_, figure| emit(&figure));
        Ok(())
    })
}
