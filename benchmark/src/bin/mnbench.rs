//! The untraced binary: end-to-end metrics, tracing off, and the suite.

fn main() -> std::process::ExitCode {
    mnbench::harness::main_with(false)
}
