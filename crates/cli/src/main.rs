//! Thin binary wrapper around [`imcis_cli::run`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match imcis_cli::run(&args) {
        Ok(report) => {
            if let Err(error) = imcis_cli::print_output(&mut std::io::stdout().lock(), &report) {
                eprintln!("imcis: cannot print the result: {error}");
                std::process::exit(1);
            }
        }
        Err(error) => {
            eprintln!("imcis: {error}");
            std::process::exit(1);
        }
    }
}
