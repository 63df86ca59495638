//! The `nnq` binary: see [`nnq_cli::USAGE`].

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = nnq_cli::run(&argv, &mut stdout) {
        let code = match e {
            nnq_cli::CliError::Usage(_) => 2,
            nnq_cli::CliError::Run(_) => 1,
            nnq_cli::CliError::BrokenPipe => return,
        };
        eprintln!("{e}");
        std::process::exit(code);
    }
}
