//! CPU affinity of the calling thread.
//!
//! On the reference host (a 2-vCPU Xeon VM shared with other tenants,
//! see README.md), each CPU slows down by up to ~1.5× for seconds at a
//! time, independently of the other: over 90 s, the 2 s window means of
//! two drive streams pinned one to each CPU correlated at 0.03. A serial workload's speed
//! then follows whichever CPU the scheduler leaves it on, so the harness
//! moves serial workloads over the allowed CPUs in turn and a run samples
//! every CPU equally.

/// glibc's `cpu_set_t`: a mask of 1024 CPUs.
type CpuSet = [u64; 16];
const MAX_CPUS: usize = 1024;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, ascending; empty if unknown.
fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..MAX_CPUS)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpus`. Best effort: if the call
/// fails, the thread keeps its mask and the run is only noisier.
fn restrict(cpus: &[usize]) {
    let mut set: CpuSet = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < MAX_CPUS) {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

/// Pins a serial workload to the allowed CPUs in turn, one cycle of
/// units (one pass over its input mix) on each, and gives the thread its
/// whole mask back when dropped. A drive moved to another CPU starts with
/// cold caches: moving every unit made drives ~23% slower, moving every
/// 60-drive cycle ~2%.
pub struct Rotation {
    cpus: Vec<usize>,
    cycle: u64,
}

impl Rotation {
    /// Rotates every `cycle` units over the allowed CPUs if `serial`;
    /// does nothing otherwise.
    pub fn new(serial: bool, cycle: u64) -> Self {
        let cpus = if serial { allowed() } else { Vec::new() };
        Self { cpus, cycle }
    }

    /// Called before unit `i`: moves the thread when a cycle starts.
    pub fn before_unit(&self, i: u64) {
        if self.cpus.len() > 1 && i.is_multiple_of(self.cycle) {
            let turn = (i / self.cycle) % self.cpus.len() as u64;
            restrict(&[self.cpus[turn as usize]]);
        }
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        if self.cpus.len() > 1 {
            restrict(&self.cpus);
        }
    }
}
