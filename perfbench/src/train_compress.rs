//! `train_compress`: the paper's Fig. 3 flow, in process.
//!
//! Stage 1 trains `vgg_tiny` in hadaBCM form (BS 8) on the CIFAR-10
//! stand-in; Stage 2 runs Algorithm 1 with fine-tuning from the Stage 1
//! accuracy minus [`TOLERANCE`] as β; the result is folded and its skip
//! bitmaps drive the hwsim PYNQ-Z2 dataflow model. A run repeats the
//! whole flow (a *round*) from the same seed until the run length is
//! spent; every round must reproduce the first bit for bit.

use crate::common::{self, argmax, Outcome, RunArgs, Snr};
use crate::layers::{self, PerLayer};
use crate::reference;
use circulant::ConvBlockCirculant;
use hwsim::{CycleBreakdown, DataflowConfig, LayerShape};
use nn::data::SyntheticVision;
use nn::layers::checkpoint::LayerSnapshot;
use nn::models::{vgg_tiny, ConvMode};
use nn::train::{evaluate, PrunableTrainedNetwork};
use nn::{Network, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpbcm::{BcmWisePruner, PruneOutcome, PruningReport, SkipIndexBuffer};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor::Tensor;

const BS: usize = 8;
/// β is the Stage 1 accuracy minus this.
const TOLERANCE: f64 = 0.10;

/// Dataset and schedule of one round.
#[derive(Debug, Clone, Copy)]
struct Sizing {
    train_per_class: usize,
    test_per_class: usize,
    stage1_epochs: usize,
    finetune_epochs: usize,
    /// Algorithm 1 rounds: α = 0.25, then α = 1.0.
    prune_rounds: usize,
}

const FULL: Sizing = Sizing {
    train_per_class: 16,
    test_per_class: 16,
    stage1_epochs: 8,
    finetune_epochs: 1,
    prune_rounds: 2,
};

const QUICK: Sizing = Sizing {
    train_per_class: 4,
    test_per_class: 2,
    stage1_epochs: 1,
    finetune_epochs: 1,
    prune_rounds: 1,
};

impl Sizing {
    fn stage1(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.stage1_epochs,
            batch_size: 16,
            ..TrainConfig::default()
        }
    }

    fn finetune(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.finetune_epochs,
            lr_max: 0.02,
            ..self.stage1()
        }
    }

    /// Algorithm 1 from α = 0.25 in one step to α = 1. Eliminating every
    /// block leaves the network at chance, so with two rounds the second
    /// is a break-down whenever β is above chance; the step is that large
    /// to bound the flow's length.
    fn pruner(&self, beta: f64) -> BcmWisePruner {
        BcmWisePruner {
            alpha_init: 0.25,
            alpha_step: 0.75,
            target_accuracy: beta,
            max_rounds: self.prune_rounds,
        }
    }
}

struct Inputs {
    data: Arc<SyntheticVision>,
    init: Network,
}

/// Dataset generation and model initialisation.
fn setup(seed: u64, sizing: Sizing) -> Inputs {
    let data = SyntheticVision::cifar10_like(sizing.train_per_class, sizing.test_per_class, seed);
    let init = vgg_tiny(
        ConvMode::HadaBcm { block_size: BS },
        data.num_classes(),
        seed,
    );
    Inputs {
        data: Arc::new(data),
        init,
    }
}

/// What one round of the flow produced.
struct Round {
    stage1_acc: f32,
    beta: f64,
    best: Network,
    report: PruningReport,
    /// Training samples forwarded and back-propagated.
    samples: u64,
    /// Wall time of the whole round: the flow's latency.
    wall: Duration,
    prune_wall: Duration,
}

fn round(inputs: &Inputs, sizing: Sizing) -> Round {
    let t = Instant::now();
    let mut net = inputs.init.clone();
    let stage1_acc = Trainer::new(sizing.stage1()).fit(&mut net, &*inputs.data);
    let beta = f64::from(stage1_acc) - TOLERANCE;
    let adapter = PrunableTrainedNetwork {
        net,
        data: Arc::clone(&inputs.data),
        finetune: sizing.finetune(),
    };
    let tp = Instant::now();
    let (best, report) = sizing.pruner(beta).run(adapter);
    let prune_wall = tp.elapsed();
    let epochs = sizing.stage1_epochs + report.steps.len() * sizing.finetune_epochs;
    Round {
        stage1_acc,
        beta,
        best: best.net,
        report,
        samples: (epochs * inputs.data.train_len()) as u64,
        wall: t.elapsed(),
        prune_wall,
    }
}

/// FNV-1a over every parameter's bits: two rounds agree iff this does.
fn fingerprint(net: &Network) -> u64 {
    let mut h = telemetry::fnv::Fnv1a::new();
    for p in net.params() {
        for &v in p.value.as_slice() {
            h.write_u32(v.to_bits());
        }
    }
    h.finish()
}

/// Rounds until `len` is spent (at least one).
struct Phase {
    rounds: Vec<Round>,
    samples: u64,
    wall: Duration,
}

fn run_rounds(inputs: &Inputs, sizing: Sizing, len: Duration) -> Phase {
    let t = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || t.elapsed() < len {
        rounds.push(round(inputs, sizing));
    }
    Phase {
        samples: rounds.iter().map(|r| r.samples).sum(),
        rounds,
        wall: t.elapsed(),
    }
}

/// Simulates one block-circulant layer with its own skip bitmaps: the
/// layer's channel tiles each get their slice of the bitmap, and the
/// per-tile figures are averaged over the channel tiles (the model
/// charges every tile of a layer like the one it is given).
pub fn simulate_tiled(
    cfg: &DataflowConfig,
    shape: &LayerShape,
    folded: &ConvBlockCirculant<f32>,
) -> CycleBreakdown {
    let bits = SkipIndexBuffer::from_conv(folded);
    simulate_bits(cfg, shape, &|i| bits.get(i))
}

fn simulate_bits(
    cfg: &DataflowConfig,
    shape: &LayerShape,
    live: &dyn Fn(usize) -> bool,
) -> CycleBreakdown {
    let bs = shape.bs;
    let (rb, cb) = (shape.c_out / bs, shape.c_in / bs);
    let tco = cfg.tile_c_out.min(shape.c_out) / bs;
    let tci = cfg.tile_c_in.min(shape.c_in) / bs;
    let taps = shape.k * shape.k;
    let mut sum = [0u64; 6];
    let mut tiles = 0u64;
    for to in 0..rb.div_ceil(tco) {
        for ti in 0..cb.div_ceil(tci) {
            let mut tile = Vec::with_capacity(taps * tco * tci);
            for tap in 0..taps {
                for o in to * tco..((to + 1) * tco).min(rb) {
                    for i in ti * tci..((ti + 1) * tci).min(cb) {
                        tile.push(live((tap * rb + o) * cb + i));
                    }
                }
            }
            let b = cfg.simulate_with_skip(shape, &SkipIndexBuffer::from_bools(&tile));
            for (s, v) in sum.iter_mut().zip([
                b.fft_cycles,
                b.emac_cycles,
                b.ifft_cycles,
                b.dram_cycles,
                b.total_cycles,
                b.dram_bytes,
            ]) {
                *s += v;
            }
            tiles += 1;
        }
    }
    CycleBreakdown {
        fft_cycles: sum[0] / tiles,
        emac_cycles: sum[1] / tiles,
        ifft_cycles: sum[2] / tiles,
        dram_cycles: sum[3] / tiles,
        total_cycles: sum[4] / tiles,
        dram_bytes: sum[5] / tiles,
    }
}

/// Per-frame modeled cycles of the compressed network, with its skip
/// bitmaps and with every block live.
fn simulate_network(net: &Network) -> (CycleBreakdown, CycleBreakdown) {
    let cfg = DataflowConfig::pynq_z2();
    let (mut sparse, mut dense) = (CycleBreakdown::default(), CycleBreakdown::default());
    let mut hw = 16usize;
    for layer in net.layers() {
        match layer.snapshot().expect("vgg_tiny snapshots") {
            LayerSnapshot::Conv2d {
                c_in,
                c_out,
                kernel,
                ..
            } => {
                let b = cfg.simulate_dense(&LayerShape::conv(c_in, c_out, hw, hw, kernel, BS));
                sparse = sparse + b;
                dense = dense + b;
            }
            LayerSnapshot::BcmConv2d {
                c_in,
                c_out,
                kernel,
                ..
            } => {
                let shape = LayerShape::conv(c_in, c_out, hw, hw, kernel, BS);
                let folded = layer.bcm().expect("BCM layer").folded();
                sparse = sparse + simulate_tiled(&cfg, &shape, &folded);
                dense = dense + simulate_bits(&cfg, &shape, &|_| true);
            }
            LayerSnapshot::MaxPool { window } => hw /= window,
            LayerSnapshot::GlobalAvgPool => hw = 1,
            LayerSnapshot::Linear {
                in_features,
                out_features,
                ..
            } => {
                let b =
                    cfg.simulate_dense(&LayerShape::conv(in_features, out_features, 1, 1, 1, BS));
                sparse = sparse + b;
                dense = dense + b;
            }
            _ => {}
        }
    }
    (sparse, dense)
}

/// SNR of every folded layer's spectral matvec (the program's FFT path)
/// against the benchmark's dense expansion of the same snapshot, on
/// seeded random inputs.
fn spectral_snr(net: &Network, seed: u64) -> Snr {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5bec);
    let mut snr = Snr::default();
    for layer in net.layers() {
        let Some(LayerSnapshot::BcmConv2d {
            c_in,
            c_out,
            kernel,
            bs,
            vecs,
            ..
        }) = layer.snapshot()
        else {
            continue;
        };
        let folded = layer.bcm().expect("BCM layer").folded();
        for tap in 0..kernel * kernel {
            let x: Vec<f32> = (0..c_in).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let got = folded.grid(tap / kernel, tap % kernel).matvec(&x);
            let want = reference::conv_tap(bs, c_out, c_in, tap, &vecs)
                .matvec(&x.iter().map(|&v| f64::from(v)).collect::<Vec<_>>());
            for (g, w) in got.iter().zip(&want) {
                snr.add(*w, f64::from(*g));
            }
        }
    }
    snr
}

/// One pass of single-image forwards of the compressed network over the
/// test set. Returns the top-1 accuracy, computed here from the logits,
/// and the sorted forward latencies (ns).
fn single_image_pass(net: &mut Network, data: &SyntheticVision) -> (f64, Vec<u64>) {
    let (images, labels) = data.test_set();
    let per = images.len() / labels.len();
    let mut correct = 0usize;
    let mut lat = Vec::with_capacity(labels.len());
    for (i, &label) in labels.iter().enumerate() {
        let x = Tensor::from_vec(
            images.as_slice()[i * per..(i + 1) * per].to_vec(),
            &[1, 3, 16, 16],
        );
        let t = Instant::now();
        let y = net.forward(&x, false);
        lat.push(t.elapsed().as_nanos() as u64);
        correct += usize::from(argmax(y.as_slice()) == label);
    }
    lat.sort_unstable();
    (correct as f64 / labels.len() as f64, lat)
}

/// Checks that every round reproduces the first; notes a seed that
/// misses the flow's sizing.
fn check_rounds(out: &mut Outcome, rounds: &[Round], quick: bool) {
    let first = &rounds[0];
    let print = fingerprint(&first.best);
    for (k, r) in rounds.iter().enumerate().skip(1) {
        out.check(
            fingerprint(&r.best) == print && r.report == first.report,
            || format!("round {k} did not reproduce round 0"),
        );
    }
    let steps = &first.report.steps;
    println!(
        "# train_compress: stage-1 acc {:.4}, beta {:.4}, Algorithm 1 {:?}, {} rounds in the phase",
        first.stage1_acc,
        first.beta,
        steps
            .iter()
            .map(|s| (s.alpha, s.accuracy, s.accepted))
            .collect::<Vec<_>>(),
        rounds.len()
    );
    // The flow is sized so that Stage 1 learns the task and Algorithm 1
    // both accepts and breaks down. How fast Stage 1 learns depends on the
    // seed's dataset and initial weights, and Algorithm 1 rejecting
    // α = 0.25 after a slow Stage 1 is its specified outcome, so a seed
    // that misses the sizing is reported, not failed: the reproduction
    // check above and the output checks in `check_network` still hold
    // for it.
    let sized = first.stage1_acc >= 0.3
        && steps.first().is_some_and(|s| s.accepted)
        && first.report.outcome == PruneOutcome::AccuracyFloorHit;
    if !quick && !sized {
        println!(
            "# train_compress: NOTE: this seed misses the flow's sizing (Stage 1 top-1 {:.4}, \
             Algorithm 1 {:?})",
            first.stage1_acc, first.report.outcome
        );
    }
}

/// Checks on the compressed network; returns (top-1, SNR dB,
/// compression, simulated fps).
fn check_network(
    out: &mut Outcome,
    r: &mut Round,
    inputs: &Inputs,
    seed: u64,
) -> (f64, f64, f64, f64) {
    let (top1, lat) = single_image_pass(&mut r.best, &inputs.data);
    println!(
        "# train_compress: single-image forward of the compressed net p50 {:.1} us, max {:.1} us ({} test images)",
        common::percentile_sorted(&lat, 0.5) as f64 / 1e3,
        lat.last().copied().unwrap_or(0) as f64 / 1e3,
        lat.len()
    );
    out.check(top1 >= r.beta - 1e-9, || {
        format!(
            "final accuracy {top1:.4} below Algorithm 1's floor {:.4}",
            r.beta
        )
    });
    let program = evaluate(&mut r.best, &*inputs.data);
    out.check((f64::from(program) - top1).abs() < 1e-6, || {
        format!("program's evaluate() says {program:.4}, single-image logits say {top1:.4}")
    });
    let snr = spectral_snr(&r.best, seed);
    out.check(snr.db() >= 100.0, || {
        format!(
            "spectral matvec off its dense expansion: SNR {:.1} dB",
            snr.db()
        )
    });
    let (dense, folded) = common::param_counts(&r.best);
    out.check(
        dense == r.best.dense_equiv_param_count() && folded == r.best.folded_param_count(),
        || {
            format!(
                "recount ({dense}, {folded}) disagrees with the program's ({}, {})",
                r.best.dense_equiv_param_count(),
                r.best.folded_param_count()
            )
        },
    );
    let (sparse, all_live) = simulate_network(&r.best);
    out.check(sparse.total_cycles <= all_live.total_cycles, || {
        format!(
            "skip-indexed cycles {} exceed the dense-model cycles {}",
            sparse.total_cycles, all_live.total_cycles
        )
    });
    let fps = DataflowConfig::pynq_z2().fps(&sparse);
    println!(
        "# train_compress: top-1 {top1:.4}, spectral SNR {:.1} dB, params {dense} -> {folded}, \
         cycles {} (all live {})",
        snr.db(),
        sparse.total_cycles,
        all_live.total_cycles
    );
    (top1, snr.db(), dense as f64 / folded as f64, fps)
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let sizing = if args.quick { QUICK } else { FULL };
    let (inputs, setup_s) = common::repeated_setup(args.quick, || setup(args.seed, sizing));
    let len = args.duration();

    let mut phase = if args.trace {
        let untraced = run_rounds(&inputs, sizing, len / 2);
        let (traced, snap) = layers::traced(|| run_rounds(&inputs, sizing, len / 2));
        let mut table = PerLayer::default();
        table.fill_from_snapshot(&snap, traced.samples);
        let rate = |p: &Phase| p.samples as f64 / p.wall.as_secs_f64();
        table.set(
            "telemetry.trace_overhead_ratio",
            rate(&untraced) / rate(&traced),
        );
        let algo_rounds: usize = traced.rounds.iter().map(|r| r.report.steps.len()).sum();
        table.set(
            "core.prune_rounds",
            snap.counters.get("pruning.rounds").copied().unwrap_or(0) as f64
                / traced.rounds.len() as f64,
        );
        table.set(
            "core.prune_round_s",
            traced
                .rounds
                .iter()
                .map(|r| r.prune_wall.as_secs_f64())
                .sum::<f64>()
                / algo_rounds.max(1) as f64,
        );
        replay_layers(&mut table, &inputs, sizing, &traced.rounds[0].best);
        table.into_metrics(&mut out);
        traced
    } else {
        run_rounds(&inputs, sizing, len)
    };
    check_rounds(&mut out, &phase.rounds, args.quick);
    let first = &mut phase.rounds[0];
    let (top1, snr, compression, fps) = check_network(&mut out, first, &inputs, args.seed);
    if !args.trace {
        let round_us: Vec<f64> = phase
            .rounds
            .iter()
            .map(|r| r.wall.as_secs_f64() * 1e6)
            .collect();
        out.metric("setup_s", setup_s, "s");
        out.metric(
            "throughput_ops_s",
            phase.samples as f64 / phase.wall.as_secs_f64(),
            "ops/s",
        );
        // The operation a user of this flow waits for is the whole round;
        // a run holds a few, so only their median is reported.
        out.metric("latency_p50_us", common::median(&round_us), "us");
        out.metric("peak_rss_mb", common::peak_rss_mb(), "MiB");
        out.metric("output_snr_db", snr, "dB");
        out.metric("top1_acc", top1, "fraction");
        out.metric("compression_x", compression, "x");
        out.metric("sim_fps", fps, "frames/s");
    }
    out.attempted = phase.samples;
    out
}

/// Times the training, evaluation and simulation layers outside the
/// flow: one Stage 1 epoch from the initial weights, one test-set
/// evaluation and one dataflow simulation of the compressed network.
fn replay_layers(table: &mut PerLayer, inputs: &Inputs, sizing: Sizing, best: &Network) {
    let mut net = inputs.init.clone();
    let one_epoch = TrainConfig {
        epochs: 1,
        ..sizing.stage1()
    };
    let t = Instant::now();
    Trainer::new(one_epoch).fit(&mut net, &*inputs.data);
    table.set("nn.train_epoch_s", t.elapsed().as_secs_f64());
    let mut best = best.clone();
    let t = Instant::now();
    evaluate(&mut best, &*inputs.data);
    table.set("nn.eval_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let (sparse, _) = simulate_network(&best);
    table.set("hwsim.sim_host_ms", t.elapsed().as_secs_f64() * 1e3);
    table.set("hwsim.sim_frame_cycles", sparse.total_cycles as f64);
}
