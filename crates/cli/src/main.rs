//! Thin binary wrapper; all logic lives in the library for testability.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match jxp_cli::run(&args) {
        Ok(jxp_cli::Outcome::Completed) => {}
        Ok(jxp_cli::Outcome::ReaderGone) => std::process::exit(jxp_cli::READER_GONE_EXIT),
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{}", jxp_cli::USAGE);
            std::process::exit(2);
        }
    }
}
