//! Untraced benchmark binary: prints the end-to-end metrics of one
//! workload. See `perfbench/README.md`.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (stdout, stderr, code) = dps_perfbench::main_with(&argv);
    eprint!("{stderr}");
    print!("{stdout}");
    std::process::exit(code);
}
