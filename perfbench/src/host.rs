//! The in-run host-speed reference.
//!
//! On a shared host the simulator's speed shifts by up to 1.5× from one
//! half-minute run to the next, with contention for caches and memory.
//! This reference is a fixed synthetic workload with the simulator's
//! memory profile, so it slows down with the simulator, though more
//! steeply: over 90 runs on a 2-vCPU Xeon box, the log of a run's host
//! time rose 0.4–0.7 times as fast as the log of the reference's median
//! (0.2 for the suite-be tail). End-to-end times are therefore scaled by
//! the square root of `NOMINAL_MS / reference`, which narrowed the
//! run-to-run spread of every timed metric there, where the full ratio
//! over-corrected. The reference is frozen here, outside the program, so
//! a change to the simulator never moves it. Its buffers live for the
//! whole process, so its cost does not depend on what the program left in
//! the allocator either.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The reference's duration on an uncontended host, in ms (2-vCPU Xeon
/// development box). A run whose reference reads this keeps its host
/// times unscaled.
pub const NOMINAL_MS: f64 = 17.0;

/// The reference's working set: a 1 MiB image (the simulated memory's
/// size) and a map of small per-key vectors.
struct Buffers {
    image: Vec<u8>,
    slots: HashMap<u32, [u32; 8]>,
}

thread_local! {
    static BUFFERS: RefCell<Buffers> = RefCell::new(Buffers {
        image: vec![0; 1 << 20],
        slots: HashMap::with_capacity(512),
    });
}

/// One reference sample, in ms: 20 rounds, each clearing the image and
/// the map, then 50 000 random byte updates across the image with a map
/// update and a short-lived vector every 16 steps.
pub fn sample() -> f64 {
    BUFFERS.with(|buffers| {
        let Buffers { image, slots } = &mut *buffers.borrow_mut();
        let t0 = Instant::now();
        let mut acc = 0u64;
        for round in 0..20u64 {
            image.fill(0);
            slots.clear();
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ round;
            for i in 0..50_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let a = (x as usize) % image.len();
                image[a] = image[a].wrapping_add(i as u8);
                let slot = slots.entry((x >> 40) as u32 % 512).or_insert([0; 8]);
                let lane = (i % 8) as usize;
                slot[lane] = slot[lane].wrapping_add(image[(a * 31) % image.len()] as u32);
                if i % 16 == 0 {
                    acc = acc.wrapping_add(black_box(slot.to_vec())[3] as u64);
                }
            }
            acc = acc.wrapping_add(black_box(&*image)[7] as u64 + slots.len() as u64);
        }
        black_box(acc);
        t0.elapsed().as_secs_f64() * 1e3
    })
}

/// The factor that scales a run's host times toward the nominal host
/// speed: the square root of `NOMINAL_MS` over the median of the run's
/// reference samples. One factor per run follows shifts between runs
/// without passing the reference's own sample-to-sample jitter into the
/// metrics.
pub fn scale(samples: &[f64]) -> f64 {
    (NOMINAL_MS / median(samples)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_the_root_of_nominal_over_the_median_sample() {
        assert_eq!(scale(&[NOMINAL_MS]), 1.0);
        assert_eq!(scale(&[4.0 * NOMINAL_MS, 4.0 * NOMINAL_MS, 90.0 * NOMINAL_MS]), 0.5);
    }
}
