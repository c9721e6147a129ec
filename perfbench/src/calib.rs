//! Host-speed calibration. The host's cores and memory system are shared
//! with other tenants, and their load slows this benchmark's host times
//! by 10–40 % in phases that last minutes: longer than a run, so no
//! statistic inside one run removes them. A fixed kernel of this
//! package's own runs between the measured work and shows how fast the
//! host was during the run; host times are then reported at a fixed
//! reference speed. The kernel shares no code with the toolchain, so a
//! change to the toolchain moves the reported times and not the kernel.
//!
//! Measured on the reference host over a 20-minute trace of back-to-back
//! `campaign-exact` campaigns on two cores, cut into 50 s windows: the
//! sum of per-cell median times spread by 0.096 of its median between
//! windows (interquartile range), and by 0.028 once divided by the
//! kernel's median time in the same window; set-up time, 0.066 and 0.018.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The kernel's median time on the reference host (Intel Xeon family 6
/// model 207, 2 vCPUs, 2 MiB L2 per core) while the other core runs a
/// campaign, seconds. A host time `t` measured in a run whose kernel
/// median is `k` is reported as `t × REFERENCE_S / k`.
pub const REFERENCE_S: f64 = 0.065;

/// How much more the exact simulator's host time moves than the kernel's
/// between the host's phases, as a power. Measured on the reference host,
/// in logarithms: 2.2× in a 20-minute trace cut into 50 s windows, 1.9×
/// between two phases of one ten-run set (campaigns 3.9 s and 2.8 s as
/// measured, kernel 0.061 s and 0.051 s). With 1.5, the sum of per-cell
/// medians spread by 0.04–0.11 of its median over four ten- and five-run
/// sets, against 0.03–0.17 with 1 and 0.12–0.30 as measured.
const SIMULATION_EXPONENT: f64 = 1.5;

/// Steps of the kernel's register machine.
const STEPS: u64 = 6_000_000;
/// Vertices of the kernel's random graph.
const VERTICES: usize = 1 << 16;
/// Out-edges per vertex.
const DEGREE: usize = 16;
/// Sets × ways of the cache model the traversal drives (2 MiB of tags,
/// so the model alone does not fit in a core's L2).
const SETS: usize = 1 << 14;
const WAYS: usize = 16;

/// The kernel's buffers. They are made before the measured work starts
/// and kept for the whole process, so the kernel adds a fixed amount to
/// the resident set, which [`resident_mb`] reports.
struct Buffers {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    tags: Vec<u64>,
    victim: Vec<u8>,
    dist: Vec<u32>,
    queue: Vec<u32>,
}

impl Buffers {
    fn new() -> Buffers {
        let b = Buffers {
            offsets: vec![0; VERTICES + 1],
            targets: vec![0; VERTICES * DEGREE],
            tags: vec![0; SETS * WAYS],
            victim: vec![0; SETS],
            dist: vec![0; VERTICES],
            queue: Vec::with_capacity(VERTICES),
        };
        let bytes = b.offsets.len() * 4
            + b.targets.len() * 4
            + b.tags.len() * 8
            + b.victim.len()
            + b.dist.len() * 4
            + b.queue.capacity() * 4;
        RESIDENT.fetch_add(bytes, Ordering::Relaxed);
        b
    }
}

static POOL: Mutex<Vec<Buffers>> = Mutex::new(Vec::new());
static RESIDENT: AtomicUsize = AtomicUsize::new(0);

/// Makes and touches buffers for `threads` kernels running at once,
/// ahead of the measured work.
pub fn reserve(threads: usize) {
    let mut pool = POOL.lock().expect("calibration pool");
    while pool.len() < threads {
        // One walk touches every page, so the buffers are resident
        // from here on.
        let mut b = Buffers::new();
        std::hint::black_box(graph_walk(&mut b));
        pool.push(b);
    }
}

/// Resident memory of the kernel's buffers, MB.
pub fn resident_mb() -> f64 {
    RESIDENT.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// One run of the calibration kernel, seconds. It does what the
/// toolchain's host time is made of, on fixed inputs: builds a random
/// graph in CSR form (scattered writes), traverses it breadth-first while
/// looking every visited vertex up in a set-associative cache model
/// (dependent, data-driven loads over several MiB), then steps a small
/// register machine through a `match` dispatch (branchy, cache-resident
/// work, as in an instruction-level simulator).
pub fn kernel() -> f64 {
    let mut b = POOL
        .lock()
        .expect("calibration pool")
        .pop()
        .unwrap_or_else(Buffers::new);
    let t = Instant::now();
    let hits = graph_walk(&mut b);
    let regs = register_machine();
    let elapsed = t.elapsed().as_secs_f64();
    std::hint::black_box((hits, regs));
    POOL.lock().expect("calibration pool").push(b);
    elapsed
}

/// Runs `work` and the kernel one after the other: the kernel first on
/// even-numbered threads and last on odd ones, so that two threads
/// started together do not run their kernels at the same time and each
/// kernel times the host beside the other core's measured work. Returns
/// the result of `work` and the kernel's time.
pub fn beside<T>(thread: usize, work: impl FnOnce() -> T) -> (T, f64) {
    if thread.is_multiple_of(2) {
        let k = kernel();
        (work(), k)
    } else {
        let r = work();
        (r, kernel())
    }
}

/// Builds the graph in `b` and walks it; returns the cache model's hits.
fn graph_walk(b: &mut Buffers) -> u64 {
    const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
    let edge = |x: &mut u64| {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        ((*x as usize) % VERTICES, ((*x >> 32) as usize) % VERTICES)
    };
    // Two passes over the same edge stream: degrees, then targets.
    b.offsets.fill(0);
    let mut x = SEED;
    for _ in 0..VERTICES * DEGREE {
        let (s, _) = edge(&mut x);
        b.offsets[s + 1] += 1;
    }
    for v in 0..VERTICES {
        b.offsets[v + 1] += b.offsets[v];
    }
    b.dist.copy_from_slice(&b.offsets[..VERTICES]);
    let mut x = SEED;
    for _ in 0..VERTICES * DEGREE {
        let (s, d) = edge(&mut x);
        b.targets[b.dist[s] as usize] = d as u32;
        b.dist[s] += 1;
    }

    b.tags.fill(u64::MAX);
    b.victim.fill(0);
    b.dist.fill(u32::MAX);
    b.queue.clear();
    let mut hits = 0u64;
    for root in [0, VERTICES / 2] {
        if b.dist[root] != u32::MAX {
            continue;
        }
        b.dist[root] = 0;
        b.queue.push(root as u32);
        let mut head = b.queue.len() - 1;
        while head < b.queue.len() {
            let v = b.queue[head] as usize;
            head += 1;
            for i in b.offsets[v] as usize..b.offsets[v + 1] as usize {
                let w = b.targets[i] as usize;
                let line = (w as u64).wrapping_mul(0x9e37_79b9) >> 6;
                let set = line as usize % SETS;
                let ways = &mut b.tags[set * WAYS..(set + 1) * WAYS];
                if ways.contains(&line) {
                    hits += 1;
                } else {
                    ways[b.victim[set] as usize % WAYS] = line;
                    b.victim[set] = b.victim[set].wrapping_add(1);
                }
                if b.dist[w] == u32::MAX {
                    b.dist[w] = b.dist[v] + 1;
                    b.queue.push(w as u32);
                }
            }
        }
    }
    hits
}

/// Steps a register machine over a fixed 12-instruction program with an
/// L1-resident memory; returns its registers.
fn register_machine() -> [u64; 8] {
    // (opcode, destination, source a, source b)
    const PROGRAM: [(u8, u8, u8, u8); 12] = [
        (0, 1, 1, 2),
        (1, 2, 2, 1),
        (2, 3, 1, 0),
        (3, 4, 3, 7),
        (4, 5, 4, 0),
        (5, 0, 5, 2),
        (0, 6, 6, 5),
        (6, 7, 6, 3),
        (1, 1, 1, 7),
        (2, 2, 7, 0),
        (7, 0, 0, 0),
        (0, 3, 3, 1),
    ];
    let mut mem = [0u64; 2048];
    let mut r = [1u64, 3, 5, 7, 11, 13, 17, 19];
    let mut pc = 0;
    for _ in 0..STEPS {
        let (op, d, a, b) = PROGRAM[pc];
        let (d, a, b) = (d as usize, a as usize, b as usize);
        pc += 1;
        match op {
            0 => r[d] = r[a].wrapping_add(r[b]),
            1 => r[d] = r[a] ^ (r[b] << 3),
            2 => r[d] = r[a].wrapping_mul(0x9e37_79b9) >> 7,
            3 => r[d] = mem[r[a] as usize & 2047],
            4 => mem[r[a] as usize & 2047] = r[d].wrapping_add(r[b]),
            5 if r[a] & 1 == 0 => pc = (pc + 1) % PROGRAM.len(),
            5 => {}
            6 => r[d] = r[a].rotate_left(r[b] as u32 & 63),
            _ => pc = 0,
        }
        if pc >= PROGRAM.len() {
            pc = 0;
        }
    }
    r
}

/// How fast the host ran during a run, from the kernel's samples taken
/// between the measured work.
pub struct Speed {
    /// Reference kernel time ÷ the run's median kernel time.
    factor: f64,
}

impl Speed {
    /// The run's speed from its kernel samples; prints them.
    pub fn from_samples(samples: &[f64]) -> Speed {
        let k = crate::median(samples);
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "# calibration kernel: {} samples, median {k:.6} s, min {min:.6} s",
            samples.len()
        );
        Speed {
            factor: if k > 0.0 { REFERENCE_S / k } else { 1.0 },
        }
    }

    /// A host time `t` measured during the run, at the reference speed:
    /// for work that follows the host's speed as the kernel does
    /// (building inputs, the daemon's analysis).
    pub fn at_reference(&self, t: f64) -> f64 {
        t * self.factor
    }

    /// A host time of the exact simulator, at the reference speed. The
    /// simulator's time moves more than the kernel's across the host's
    /// phases, as `k^SIMULATION_EXPONENT`.
    pub fn simulation_at_reference(&self, t: f64) -> f64 {
        t * self.factor.powf(SIMULATION_EXPONENT)
    }
}
