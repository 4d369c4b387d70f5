//! Run the paper's experiments: `exp [NAME ...]` (see
//! `scanshare_bench::exp` for the table of names).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(scanshare_bench::exp::main(&args));
}
