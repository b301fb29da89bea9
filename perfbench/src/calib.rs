//! The calibration kernel: a fixed pure-Rust workload timed beside each
//! program, so a pass's wall-clock can be scaled to a reference machine
//! speed.
//!
//! On a shared two-core box the same pass ranges widely in wall-clock
//! from one run to the next, with how hard neighbours press on the shared
//! caches, memory and execution units. A slowdown that hits the VM also
//! hits a kernel run right before it, so `wall × REFERENCE_MS / kernel`
//! keeps the VM's own cost and divides out the machine's momentary speed.
//!
//! The kernel has two parts, and its time is the geometric mean of
//! theirs. One part is a dependent chain of random read-modify-writes
//! over a 16 MiB table: memory latency under whatever contention there
//! is. The other is a small bytecode interpreter: dispatch over a
//! pseudo-random program, a value stack and short-lived allocations.
//! Which part tracked the VM better changed from one hour to the next
//! (README.md has the measurements); together they tracked it well in
//! both.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time on the reference machine (one run), in
/// milliseconds. Calibrated times read as milliseconds on that machine.
pub const REFERENCE_MS: f64 = 1.5;

const TABLE_WORDS: usize = 1 << 21;
const MEMORY_STEPS: usize = 120_000;
const PROGRAM_LEN: usize = 4096;
const INTERP_ROUNDS: u64 = 30;

/// Bytes the kernel's table keeps resident for the whole run.
pub const TABLE_BYTES: usize = TABLE_WORDS * std::mem::size_of::<u64>();

/// The kernel with its table and program, reused across runs, and the
/// times of the runs sampled since the last [`Kernel::take`].
#[derive(Debug)]
pub struct Kernel {
    table: Vec<u64>,
    program: Vec<u8>,
    samples: Vec<f64>,
}

impl Default for Kernel {
    fn default() -> Self {
        let mut x: u64 = 0x5851_F42D_4C95_7F2D;
        let program = (0..PROGRAM_LEN)
            .map(|_| {
                x = xorshift(x);
                (x % 8) as u8
            })
            .collect();
        Kernel {
            table: vec![1; TABLE_WORDS],
            program,
            samples: Vec::new(),
        }
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

fn time<R>(f: impl FnOnce() -> R) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64() * 1e3
}

impl Kernel {
    /// Runs the kernel once and keeps its time as a sample.
    pub fn sample(&mut self) {
        let ms = self.time_ms();
        self.samples.push(ms);
    }

    /// The samples since the last call, in milliseconds.
    pub fn take(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.samples)
    }

    /// One kernel run: the geometric mean of its two parts' wall-clock,
    /// in milliseconds.
    pub fn time_ms(&mut self) -> f64 {
        let memory = time(|| self.memory());
        let interp = time(|| self.interp());
        (memory * interp).sqrt()
    }

    /// The same address sequence every run, each step's store feeding a
    /// later load.
    fn memory(&mut self) -> u64 {
        let mask = TABLE_WORDS - 1;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc: u64 = 0;
        for _ in 0..MEMORY_STEPS {
            x = xorshift(x);
            let at = (x as usize) & mask;
            acc = acc.wrapping_add(self.table[at]);
            self.table[at] = acc;
        }
        acc
    }

    /// A stack machine running the fixed program `INTERP_ROUNDS` times.
    fn interp(&self) -> u64 {
        let mut stack: Vec<u64> = vec![1, 2, 3];
        let mut heap: Vec<Vec<u64>> = Vec::new();
        let mut acc: u64 = 0;
        for round in 0..INTERP_ROUNDS {
            for (pc, &op) in self.program.iter().enumerate() {
                let pc = pc as u64;
                match op {
                    0 => stack.push(pc ^ round),
                    1 => {
                        let a = stack.pop().unwrap_or(1);
                        let b = stack.pop().unwrap_or(2);
                        stack.push(a.wrapping_add(b));
                    }
                    2 => {
                        let a = stack.pop().unwrap_or(3);
                        stack.push(a.wrapping_mul(31));
                    }
                    3 => {
                        if stack.len() > 64 {
                            stack.truncate(8);
                        }
                        stack.push(acc);
                    }
                    4 => {
                        heap.push(vec![acc; 4]);
                        if heap.len() > 256 {
                            heap.clear();
                        }
                    }
                    5 => {
                        if let Some(v) = heap.last_mut() {
                            v[(pc & 3) as usize] ^= pc;
                            acc ^= v[0];
                        }
                    }
                    6 => acc = acc.rotate_left(5) ^ stack.last().copied().unwrap_or(0),
                    _ => {
                        acc = if acc & 1 == 0 {
                            acc + 3
                        } else {
                            acc.wrapping_mul(3)
                        }
                    }
                }
            }
        }
        acc ^ stack.len() as u64
    }
}

/// Scale factor from a measured kernel time to the reference.
pub fn factor(kernel_ms: f64) -> f64 {
    REFERENCE_MS / kernel_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_run() {
        let mut a = Kernel::default();
        let mut b = Kernel::default();
        assert_eq!(a.memory(), b.memory());
        assert_eq!(a.memory(), b.memory());
        assert_eq!(a.interp(), b.interp());
        a.sample();
        a.sample();
        assert_eq!(a.take().len(), 2);
        assert!(a.take().is_empty());
        assert_eq!(factor(REFERENCE_MS), 1.0);
    }
}
