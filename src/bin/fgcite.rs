//! Thin binary wrapper around [`fgcite::cli`].
//!
//! `serve` is dispatched here rather than through [`fgcite::cli::run`]
//! because it never returns: the process blocks on the server handle
//! until it is killed.

use std::process::ExitCode;

fn read_file(path: &str) -> Result<String, fgcite::cli::CliError> {
    std::fs::read_to_string(path)
        .map_err(|e| fgcite::cli::CliError(format!("cannot read `{path}`: {e}")))
}

fn serve(raw: Vec<String>) -> Result<(), fgcite::cli::CliError> {
    let args = fgcite::cli::Args::parse(raw)?;
    if args.get("replicas").is_some() {
        let server = fgcite::cli::run_serve_coordinator(&args)?;
        println!(
            "fgcite coordinator serving on http://{} ({} replica(s))",
            server.addr(),
            server.coordinator().pool().replicas()
        );
        println!("routes: POST /cite, POST /cite_sql, GET /views, GET /stats, GET /healthz");
        server.wait();
        return Ok(());
    }
    // --data is optional when a disk data dir can cold-start the
    // store; run_serve errors out when the loader turns out needed.
    let data = args.get("data").map(read_file).transpose()?;
    let views = read_file(args.require("views")?)?;
    let commits = args.get("commits").map(read_file).transpose()?;
    let versioned = commits.is_some();
    let server = fgcite::cli::run_serve(&args, data.as_deref(), &views, commits.as_deref())?;
    println!("fgcite serving on http://{}", server.addr());
    if versioned {
        println!(
            "routes: POST /cite, POST /cite_sql, POST /cite_at, GET /views, GET /versions, \
             GET /stats, GET /healthz"
        );
    } else {
        println!("routes: POST /cite, POST /cite_sql, GET /views, GET /stats, GET /healthz");
    }
    server.wait();
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = if raw.first().map(String::as_str) == Some("serve") {
        serve(raw).map(|()| String::new())
    } else {
        fgcite::cli::run(raw, &read_file)
    };
    match result {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
