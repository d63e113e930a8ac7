//! `simgen` — command-line front end for the SimGen reproduction.
//! `simgen help` lists every command with its operands and the flags
//! it takes.

use std::process::ExitCode;

use simgen_cli::{run, CliError};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(CliError(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("run `simgen help` for usage");
            ExitCode::from(64)
        }
    }
}
