//! `infer_fx`: fixed-point single-shot `infer` requests over the wire.
//!
//! The model has the serving demo's shape: three 512→512 block-circulant
//! 1×1 layers with ReLUs, BS 16, seven of every eight blocks eliminated,
//! Q8. One generator thread keeps [`WINDOW`] requests in flight on each
//! of two connections (one per default shard), each request carrying one
//! of [`POOL`] random i16 samples picked by a seeded per-connection
//! stream, so batches fill and mix samples at every batch position.

use crate::common::{self, argmax, Outcome, RunArgs, Snr, Windows};
use crate::layers::{self, PerLayer};
use crate::reference::FcStack;
use crate::wire::{Conn, Readiness, STATUS_OK};
use hwsim::{FxBatch, QFormat};
use nn::layers::{BcmConv2d, Layer, ReLU};
use nn::{CheckpointMeta, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::protocol::{self, Payload, Request, Response};
use serve::{Model, Registry, ServeConfig, Server};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Width of the served layers.
const WIDTH: usize = 512;
/// Block size of the served layers.
const BS: usize = 16;
/// Fraction bits of the fixed-point format.
const FRAC_BITS: u8 = 8;
/// Distinct samples per run.
const POOL: usize = 256;
/// Requests in flight per connection: four times the default batch size
/// (and below the per-shard queue cap), so full batches are always
/// queued behind the one executing and the shards never idle between
/// batches.
const WINDOW: usize = 32;
/// Connections, one per default shard on the 2-core host.
const CONNS: usize = 2;
/// Largest accepted |fixed-point − reference| of any output, in units of
/// the output's quantization step (1/256). Seeds 11–20 stay below 1.3.
const ERR_BOUND_LSB: f64 = 4.0;
const MODEL: &str = "demo";
const MODEL_SEED: u64 = 42;

/// The served network. Its weights are fixed (seed 42, as the serving
/// demo's), so only the request samples vary with `--seed` and the
/// quality metrics measure the datapath, not a draw of weights.
fn build_model() -> (Network, CheckpointMeta) {
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    for _ in 0..3 {
        layers.push(Box::new(BcmConv2d::new(
            &mut rng, WIDTH, WIDTH, 1, 1, 0, BS,
        )));
        layers.push(Box::new(ReLU::new()));
    }
    let mut net = Network::new(MODEL, layers);
    let kill: Vec<usize> = (0..net.bcm_block_count()).filter(|i| i % 8 != 0).collect();
    net.bcm_eliminate(&kill);
    let meta = CheckpointMeta {
        input_dims: vec![WIDTH, 1, 1],
        frac_bits: FRAC_BITS,
    };
    (net, meta)
}

/// The random i16 samples of a run (values in [−1, 1) at Q8).
fn samples(seed: u64) -> Vec<Vec<i16>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a_4d91);
    (0..POOL)
        .map(|_| (0..WIDTH).map(|_| rng.gen_range(-256i16..256)).collect())
        .collect()
}

struct Live {
    server: Server,
    conns: Vec<Conn>,
}

/// Model build and publish, server bind, connect (each connection
/// proven live by a ping round trip).
fn setup() -> Live {
    let (net, meta) = build_model();
    let registry = Registry::new();
    registry.publish(Model::from_network(MODEL, net, meta));
    let server = Server::bind("127.0.0.1:0", ServeConfig::default(), registry).expect("bind");
    let ping = protocol::encode_request(&Request::Ping);
    let conns = (0..CONNS)
        .map(|_| {
            let mut c = Conn::connect(server.local_addr()).expect("connect");
            let reply = c.round_trip(&ping).expect("ping");
            assert_eq!(reply.first(), Some(&STATUS_OK), "ping answered");
            c
        })
        .collect();
    Live { server, conns }
}

/// What one timed phase produced.
struct Phase {
    /// Completions and their client latencies, per second.
    windows: Windows,
    /// Every reply, including those drained after the window.
    replies: u64,
}

struct Driver {
    frames: Vec<Vec<u8>>,
    rngs: Vec<StdRng>,
    /// First reply bytes per sample; every later reply must equal them.
    first: Vec<Option<Vec<u8>>>,
    attempted: u64,
    failed: u64,
    mismatches: u64,
}

impl Driver {
    fn new(seed: u64, samples: &[Vec<i16>]) -> Driver {
        Driver {
            frames: samples
                .iter()
                .map(|s| {
                    protocol::encode_request(&Request::Infer {
                        model: MODEL.to_string(),
                        input: Payload::Fx(s.clone()),
                    })
                })
                .collect(),
            rngs: (0..CONNS as u64)
                .map(|c| StdRng::seed_from_u64(seed ^ (0xc0_22 + c)))
                .collect(),
            first: vec![None; samples.len()],
            attempted: 0,
            failed: 0,
            mismatches: 0,
        }
    }

    /// Closed loop over every connection for `len`, then drains.
    fn run(&mut self, live: &mut Live, len: Duration) -> Phase {
        let mut ready = Readiness::new(&live.conns).expect("poller");
        let mut inflight: Vec<VecDeque<(Instant, usize)>> = vec![VecDeque::new(); CONNS];
        let mut replies = 0u64;
        let start = Instant::now();
        let deadline = start + len;
        let mut windows = Windows::new(start, len);
        for (c, (conn, q)) in live.conns.iter_mut().zip(&mut inflight).enumerate() {
            for _ in 0..WINDOW {
                self.send(conn, q, c, start);
            }
            conn.flush().expect("send");
        }
        let mut last_progress = Instant::now();
        loop {
            let now = Instant::now();
            if now >= deadline && inflight.iter().all(VecDeque::is_empty) {
                break;
            }
            assert!(
                now - last_progress < Duration::from_secs(20),
                "server stopped answering"
            );
            let timeout = if now < deadline {
                deadline - now
            } else {
                Duration::from_millis(100)
            };
            for c in ready.wait(timeout).expect("poll") {
                let conn = &mut live.conns[c];
                assert!(conn.fill().expect("read"), "server closed the connection");
                let mut resend = 0;
                while let Some(frame) = conn.next_frame() {
                    let t = Instant::now();
                    let (sent, sample) = inflight[c].pop_front().expect("reply to a request");
                    replies += 1;
                    last_progress = t;
                    if frame.first() != Some(&STATUS_OK) {
                        self.failed += 1;
                    } else {
                        match &self.first[sample] {
                            Some(want) => self.mismatches += u64::from(want.as_slice() != frame),
                            None => self.first[sample] = Some(frame.to_vec()),
                        }
                    }
                    if t <= deadline {
                        windows.record(t, (t - sent).as_nanos() as u64);
                    }
                    if t < deadline {
                        resend += 1;
                    }
                }
                for _ in 0..resend {
                    self.send(conn, &mut inflight[c], c, Instant::now());
                }
                conn.flush().expect("send");
            }
        }
        Phase { windows, replies }
    }

    fn send(&mut self, conn: &mut Conn, q: &mut VecDeque<(Instant, usize)>, c: usize, at: Instant) {
        let sample = self.rngs[c].gen_range(0..self.frames.len());
        conn.queue(&self.frames[sample]);
        q.push_back((at, sample));
        self.attempted += 1;
    }
}

/// Checks every distinct reply against the f64 dense reference; returns
/// the SNR in dB and the top-1 agreement.
fn check_outputs(out: &mut Outcome, samples: &[Vec<i16>], first: &[Option<Vec<u8>>]) -> (f64, f64) {
    let (net, _) = build_model();
    let reference = FcStack::from_network(&net);
    let q = QFormat::new(u32::from(FRAC_BITS));
    let mut snr = Snr::default();
    let (mut agree, mut seen) = (0usize, 0usize);
    let mut worst = 0.0f64;
    for (sample, reply) in samples.iter().zip(first) {
        let Some(reply) = reply else { continue };
        let got = match protocol::decode_response(reply, true) {
            Ok(Response::Output(Payload::Fx(v))) if v.len() == WIDTH => v,
            other => {
                out.fail(format!("malformed infer reply: {other:?}"));
                continue;
            }
        };
        let x: Vec<f64> = sample.iter().map(|&v| q.to_f64(v)).collect();
        let want = reference.forward(&x);
        for (&g, &w) in got.iter().zip(&want) {
            let g = q.to_f64(g);
            snr.add(w, g);
            worst = worst.max((g - w).abs() / q.resolution());
        }
        seen += 1;
        agree += usize::from(argmax(&got) == argmax(&want));
    }
    out.check(seen > 0, || "no infer reply was checked".to_string());
    out.check(worst <= ERR_BOUND_LSB, || {
        format!("fx output off the f64 reference by {worst:.1} LSB (bound {ERR_BOUND_LSB})")
    });
    println!(
        "# infer_fx: {seen} distinct samples checked, worst error {worst:.2} LSB, SNR {:.2} dB",
        snr.db()
    );
    (snr.db(), agree as f64 / seen.max(1) as f64)
}

/// Modeled PYNQ-Z2 frames per second of the served stack: each 512→512
/// layer as a 1×1 convolution over a 1×1 map, skip bitmaps from the
/// live blocks, the PE bank built for the layers' block size.
fn sim_fps(net: &Network) -> f64 {
    let mut cfg = hwsim::DataflowConfig::pynq_z2();
    cfg.pe = hwsim::pe::PeBankConfig::new(BS, cfg.pe.p);
    let mut cycles = hwsim::CycleBreakdown::default();
    for bcm in net.bcm_layers() {
        let folded = bcm.folded();
        let (c_out, c_in) = folded.channel_dims();
        let shape = hwsim::LayerShape::conv(c_in, c_out, 1, 1, 1, BS);
        cycles = cycles + crate::train_compress::simulate_tiled(&cfg, &shape, &folded);
    }
    cfg.fps(&cycles)
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let samples = samples(args.seed);
    let (mut live, setup_s) = common::repeated_setup(args.quick, setup);
    let mut driver = Driver::new(args.seed, &samples);
    let len = args.duration();

    if args.trace {
        let untraced = driver.run(&mut live, len / 2);
        let (traced, snap) = layers::traced(|| driver.run(&mut live, len / 2));
        let mut table = PerLayer::default();
        table.fill_from_snapshot(&snap, traced.replies);
        table.set(
            "telemetry.trace_overhead_ratio",
            untraced.windows.median_rate() / traced.windows.median_rate(),
        );
        replay_engine(&mut table, &live, &samples, args.quick);
        let (net, _) = build_model();
        let t = Instant::now();
        let fps = sim_fps(&net);
        table.set("hwsim.sim_host_ms", t.elapsed().as_secs_f64() * 1e3);
        table.set(
            "hwsim.sim_frame_cycles",
            hwsim::DataflowConfig::pynq_z2().freq_mhz * 1e6 / fps,
        );
        table.into_metrics(&mut out);
        check_outputs(&mut out, &samples, &driver.first);
    } else {
        let phase = driver.run(&mut live, len);
        out.metric("setup_s", setup_s, "s");
        common::serving_metrics(&mut out, "infer_fx", &phase.windows, args.quick);
        let (snr, top1) = check_outputs(&mut out, &samples, &driver.first);
        let (net, _) = build_model();
        out.metric("peak_rss_mb", common::peak_rss_mb(), "MiB");
        out.metric("output_snr_db", snr, "dB");
        out.metric("top1_acc", top1, "fraction");
        out.metric("compression_x", common::compression(&net), "x");
        out.metric("sim_fps", sim_fps(&net), "frames/s");
    }
    out.check(driver.mismatches == 0, || {
        format!(
            "{} replies differ from an earlier reply to the same sample",
            driver.mismatches
        )
    });
    out.attempted = driver.attempted;
    out.failed = driver.failed;
    drop(live.conns);
    live.server.shutdown();
    out
}

/// Times the served model's fixed-point engine on the run's own samples,
/// outside the server: a batch of eight through the packed lane path
/// and one sample through the single-sample path.
fn replay_engine(table: &mut PerLayer, live: &Live, samples: &[Vec<i16>], quick: bool) {
    let entry = live
        .server
        .registry()
        .resolve(MODEL)
        .expect("published model");
    let fx = entry.fx().expect("fx mirror");
    let q = fx.qformat();
    let reps = if quick { 20 } else { 400 };
    let mut i = 0usize;
    table.set(
        "hwsim.fx_batch8_us",
        common::time_us(reps, || {
            let rows: Vec<Vec<i16>> = (0..8).map(|k| samples[(i + k) % POOL].clone()).collect();
            i += 8;
            std::hint::black_box(fx.forward_batch_packed(FxBatch::from_rows(q, &rows)));
        }),
    );
    table.set(
        "hwsim.fx_sample_us",
        common::time_us(reps, || {
            i += 1;
            std::hint::black_box(fx.forward(&samples[i % POOL]));
        }),
    );
}
