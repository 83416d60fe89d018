//! The traced binary: per-layer metrics. The counting allocator slows
//! every allocation, which is why it is linked here and nowhere else.

use mnbench::alloc::CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    mnbench::harness::main_with(true)
}
