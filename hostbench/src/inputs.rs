//! Seeded input generation. Every input a workload hands the program —
//! training sets, evaluation sets, request tensors and the arrival
//! schedule — is drawn here from the `--seed` argument, on the calling
//! thread, so the same seed always gives the same inputs.

use scidl_data::{ClimateConfig, ClimateDataset, HepConfig, HepDataset};
use scidl_serve::PoissonArrivals;
use scidl_tensor::{Tensor, TensorRng};

/// Independent seed streams derived from the benchmark seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    /// Training data; training set `k` is drawn from [`Seeds::set`].
    pub data: u64,
    /// Held-out evaluation data.
    pub eval: u64,
    /// Model initialisation and the engine's batch sampling. Fixed per
    /// workload: the seed varies the data, not the starting point, so
    /// the final loss measures training rather than the draw of the
    /// initial weights.
    pub engine: u64,
    /// Request tensors and their order.
    pub requests: u64,
    /// Poisson arrival schedule.
    pub schedule: u64,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Seeds {
    /// Derives every stream from one benchmark seed.
    pub fn new(seed: u64) -> Self {
        let s = |k: u64| splitmix(seed ^ splitmix(k));
        Self {
            data: s(1),
            eval: s(2),
            engine: 0x7B,
            requests: s(4),
            schedule: s(5),
        }
    }

    /// Seed of training set `k`.
    pub fn set(&self, k: u64) -> u64 {
        splitmix(self.data ^ splitmix(k))
    }
}

/// HEP training set `k`: 32×32×3 images.
pub fn hep_train(seeds: &Seeds, k: u64, n: usize) -> HepDataset {
    HepDataset::generate(HepConfig::small(), n, seeds.set(k))
}

/// Held-out HEP images for the final-loss evaluation.
pub fn hep_eval(seeds: &Seeds, n: usize) -> HepDataset {
    HepDataset::generate(HepConfig::small(), n, seeds.eval)
}

/// Climate training set `k`: 64×64×4 frames, half of them labelled.
pub fn climate_train(seeds: &Seeds, k: u64, n: usize) -> ClimateDataset {
    ClimateDataset::generate(ClimateConfig::small(), n, seeds.set(k))
}

/// Held-out climate frames for the final-loss evaluation.
pub fn climate_eval(seeds: &Seeds, n: usize) -> ClimateDataset {
    ClimateDataset::generate(ClimateConfig::small(), n, seeds.eval)
}

/// Serving inputs: `distinct` HEP images, and a seeded
/// order in which requests cycle through them.
pub struct Requests {
    /// One `(1, 3, 32, 32)` tensor per distinct input.
    pub inputs: Vec<Tensor>,
    /// Input index of request `i` is `order[i % order.len()]`.
    pub order: Vec<usize>,
}

impl Requests {
    /// Input index of the `i`-th request.
    pub fn pick(&self, i: usize) -> usize {
        self.order[i % self.order.len()]
    }
}

/// Generates the serving inputs.
pub fn requests(seeds: &Seeds, distinct: usize, order_len: usize) -> Requests {
    let ds = HepDataset::generate(HepConfig::small(), distinct, seeds.requests);
    let inputs = (0..distinct).map(|i| ds.gather(&[i]).0).collect();
    let mut rng = TensorRng::new(seeds.requests ^ 0x5EED);
    let order = (0..order_len).map(|_| rng.below(distinct)).collect();
    Requests { inputs, order }
}

/// Open-loop arrival times in seconds from the phase start.
pub fn schedule(seeds: &Seeds, rate: f64, n: usize) -> Vec<f64> {
    PoissonArrivals::new(seeds.schedule, rate, n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same_hep(a: &HepDataset, b: &HepDataset) -> bool {
        a.images.data() == b.images.data() && a.labels == b.labels
    }

    fn same_climate(a: &ClimateDataset, b: &ClimateDataset) -> bool {
        a.samples.iter().zip(&b.samples).all(|(x, y)| {
            x.image.data() == y.image.data() && x.boxes == y.boxes && x.labelled == y.labelled
        })
    }

    fn same_requests(a: &Requests, b: &Requests) -> bool {
        a.order == b.order
            && a.inputs
                .iter()
                .zip(&b.inputs)
                .all(|(x, y)| x.data() == y.data())
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        let (a, b) = (Seeds::new(7), Seeds::new(7));
        assert_eq!(a, b);
        assert!(same_hep(&hep_train(&a, 3, 16), &hep_train(&b, 3, 16)));
        assert!(same_hep(&hep_eval(&a, 16), &hep_eval(&b, 16)));
        assert!(same_climate(
            &climate_train(&a, 3, 4),
            &climate_train(&b, 3, 4)
        ));
        assert!(same_climate(&climate_eval(&a, 4), &climate_eval(&b, 4)));
        assert!(same_requests(&requests(&a, 8, 32), &requests(&b, 8, 32)));
        assert_eq!(schedule(&a, 2000.0, 100), schedule(&b, 2000.0, 100));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let (a, b) = (Seeds::new(7), Seeds::new(8));
        assert!(!same_hep(&hep_train(&a, 3, 16), &hep_train(&b, 3, 16)));
        assert!(!same_hep(&hep_eval(&a, 16), &hep_eval(&b, 16)));
        assert!(!same_climate(
            &climate_train(&a, 3, 4),
            &climate_train(&b, 3, 4)
        ));
        assert!(!same_requests(&requests(&a, 8, 32), &requests(&b, 8, 32)));
        assert_ne!(schedule(&a, 2000.0, 100), schedule(&b, 2000.0, 100));
    }

    #[test]
    fn training_sets_and_evaluation_data_are_distinct() {
        let s = Seeds::new(7);
        assert!(!same_hep(&hep_train(&s, 0, 16), &hep_eval(&s, 16)));
        assert!(!same_hep(&hep_train(&s, 0, 16), &hep_train(&s, 1, 16)));
        assert!(!same_climate(
            &climate_train(&s, 0, 4),
            &climate_train(&s, 1, 4)
        ));
    }
}
