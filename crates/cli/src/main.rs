//! `bda-cli` — explore wireless broadcast data access from the terminal.
//!
//! ```text
//! bda-cli inspect  --scheme distributed --records 1000
//! bda-cli trace    --scheme hashing --records 200 --key-index 37 --tune-in 54321
//! bda-cli compare  --records 2000 --availability 60
//! bda-cli simulate --scheme signature --records 5000
//! ```

mod args;
mod commands;
mod trace;

use std::io::{self, Write};

use commands::CliError;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("{}", args::USAGE);
        std::process::exit(2);
    }
    let cmd = argv[0].as_str();
    let opts = match args::Options::parse(&argv[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", args::USAGE);
            std::process::exit(2);
        }
    };
    let mut out = io::stdout().lock();
    let result = match cmd {
        "inspect" => commands::inspect(&opts, &mut out),
        "trace" => commands::trace(&opts, &mut out),
        "compare" => commands::compare(&opts, &mut out),
        "simulate" => commands::simulate(&opts, &mut out),
        "help" | "--help" | "-h" => writeln!(out, "{}", args::USAGE).map_err(CliError::from),
        other => Err(CliError::Failed(format!("unknown command {other:?}"))),
    };
    match result.and_then(|()| out.flush().map_err(CliError::from)) {
        Ok(()) => {}
        // The reader went away (`bda-cli … | head`): nothing is left to
        // say, and nobody to say it to.
        Err(CliError::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
