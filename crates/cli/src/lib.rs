//! Implementation of the `nnq` command-line tool.
//!
//! The binary (`src/main.rs`) is a thin wrapper around [`run`], so the
//! whole tool is unit- and integration-testable without spawning
//! processes.
//!
//! ```text
//! nnq gen    --kind tiger --n 50000 --seed 7 --out roads.csv
//! nnq build  --input roads.csv --index roads.rtree --method str
//! nnq ingest --input more.csv --index roads.rtree --wal roads.wal --group-commit-us 500 --id-base 1000000
//! nnq delete --input more.csv --index roads.rtree --wal roads.wal --id-base 1000000
//! nnq stats  --index roads.rtree
//! nnq query  --index roads.rtree --data roads.csv --at 50000,50000 -k 5
//! nnq query  --index roads.rtree --data roads.csv --at 50000,50000 --radius 2000
//! nnq bench  --index roads.rtree --data roads.csv --queries 1000 -k 10
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;

pub use args::{Args, CliError};

/// Entry point: parses `argv` (without the program name) and executes the
/// requested subcommand, writing human-readable output to `out`.
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(CliError::Usage(USAGE.into()));
    };
    let args = Args::parse(rest)?;
    if let Some(line) = USAGE
        .lines()
        .find(|l| l.split_whitespace().take(2).eq(["nnq", cmd.as_str()]))
    {
        args.only(line)?;
    }
    match cmd.as_str() {
        "gen" => commands::generate(&args, out),
        "build" => commands::build(&args, out),
        "ingest" => commands::ingest(&args, out),
        "delete" => commands::delete(&args, out),
        "stats" => commands::stats(&args, out),
        "query" => commands::query(&args, out),
        "bench" => commands::bench(&args, out),
        "serve" => commands::serve(&args, out),
        "explain" => commands::explain(&args, out),
        "join" => commands::join(&args, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}").map_err(CliError::from)?;
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n{USAGE}"
        ))),
    }
}

/// The tool's usage text.
pub const USAGE: &str = "\
nnq — nearest-neighbor queries over R-trees (RKV'95)

USAGE:
  nnq gen    --kind <tiger|uniform|clustered> --n <N> [--seed <S>] --out <FILE>
  nnq build  --input <FILE> --index <FILE> [--method <quadratic|linear|rstar|str|hilbert|lowx>] [--partitions <P>]
  nnq ingest --input <FILE> --index <FILE> [--wal <FILE>] [--group-commit-us <N>] [--id-base <N>]
  nnq delete --input <FILE> --index <FILE> [--wal <FILE>] [--group-commit-us <N>] [--id-base <N>]
  nnq stats  --index <FILE>
  nnq query  --index <FILE> --data <FILE> --at <X,Y> [-k <K>] [--radius <R>] [--metric <l1|l2|linf>] [--threads <N>] [--partitions <P>] [--pool-shards <P2>] [--io-lat-us <N>]
  nnq bench  --index <FILE> --data <FILE> [--queries <N>] [-k <K>] [--seed <S>] [--threads <N>] [--partitions <P>] [--pool-shards <P2>] [--prefetch <off|adaptive>] [--io-lat-us <N>]
  nnq serve  --index <FILE> --data <FILE> [--port <P>] [--port-file <FILE>] [--threads <N>] [--batch-max <N>] [--inbox-cap <N>] [--result-cache <off|N>] [--max-in-flight <N>] [--partitions <P>] [--pool-shards <P2>] [--prefetch <off|adaptive>] [--io-lat-us <N>]
  nnq explain --index <FILE> --at <X,Y> [-k <K>]
  nnq join   --index <FILE> --data <FILE> --outer <FILE> [-k <K>]

Datasets are segment CSV files (`ax,ay,bx,by` per line); point datasets use
degenerate segments. Indexes are page files created by `build` (the meta
page is page 0). `build --partitions P` needs a bulk method and splits the
dataset into P Hilbert-key-range trees (`<index>.p<i>` + `<index>.manifest`);
`query`/`bench --partitions P` run scatter-gather over them, pruning each
tree by its own root MBR. `serve` runs until a client sends a shutdown frame
(see the `nnq-serve` crate for the wire protocol); `--port 0` binds an
ephemeral port, written to `--port-file` for scripts.";
