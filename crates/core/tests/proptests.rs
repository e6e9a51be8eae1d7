//! Property tests for the core data pipeline and detector invariants.

use logsynergy::config::ModelConfig;
use logsynergy::data::{batch_features, batch_labels, SeqSample};
use logsynergy::detector::Detector;
use logsynergy::model::LogSynergyModel;
use proptest::prelude::*;
use rand::SeedableRng;

fn samples_strategy(max_event: u32) -> impl Strategy<Value = Vec<SeqSample>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0..max_event, 1..12),
            any::<bool>(),
        )
            .prop_map(|(events, label)| SeqSample { events, label }),
        1..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// batch_features always produces [B, T, D] with correct padding.
    #[test]
    fn batch_features_shape_and_padding(samples in samples_strategy(3), t in 1usize..12, d in 1usize..8) {
        let emb: Vec<Vec<f32>> = (0..3).map(|i| vec![(i + 1) as f32; d]).collect();
        let refs: Vec<&SeqSample> = samples.iter().collect();
        let x = batch_features(&refs, &emb, t, d);
        prop_assert_eq!(x.shape(), &[samples.len(), t, d]);
        for (i, s) in samples.iter().enumerate() {
            for step in 0..t {
                let off = (i * t + step) * d;
                let got = x.data()[off];
                if step < s.events.len().min(t) {
                    prop_assert_eq!(got, (s.events[step] + 1) as f32);
                } else {
                    prop_assert_eq!(got, 0.0, "padding must be zero");
                }
            }
        }
        let labels = batch_labels(&refs);
        prop_assert_eq!(labels.len(), samples.len());
        prop_assert!(labels.iter().all(|&l| l == 0.0 || l == 1.0));
    }

    /// Detector scores are probabilities regardless of inputs, and
    /// independent of batch size.
    #[test]
    fn detector_scores_are_probabilities(samples in samples_strategy(2), seed in 0u64..50) {
        let mut cfg = ModelConfig::scaled(2);
        cfg.embed_dim = 8;
        cfg.d_model = 8;
        cfg.heads = 2;
        cfg.ff = 16;
        cfg.layers = 1;
        cfg.head_hidden = 8;
        cfg.max_len = 12;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let model = LogSynergyModel::new(cfg, &mut rng);
        let emb: Vec<Vec<f32>> = vec![vec![0.5; 8], vec![-0.5; 8]];
        let a = Detector::new(&model).with_batch_size(2).scores(&samples, &emb);
        let b = Detector::new(&model).with_batch_size(64).scores(&samples, &emb);
        prop_assert_eq!(a.len(), samples.len());
        for (&x, &y) in a.iter().zip(&b) {
            prop_assert!((0.0..=1.0).contains(&x));
            prop_assert_eq!(x.to_bits(), y.to_bits(), "batching changed a score: {} vs {}", x, y);
        }
    }
}
