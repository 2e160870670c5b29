//! `stream_lstm`: streaming sequence classification over sessions.
//!
//! The model has the shape of the serving tier's streaming demo: a
//! BCM-LSTM with 8 inputs, hidden 16, BS 4 and the least important half
//! of its gate blocks eliminated, then a dense 8-class head. Each of two
//! connections carries [`SESSIONS`] concurrent sessions, half float and
//! half fixed-point (Q12). A session opens, steps one [`STEPS`]-long
//! sequence from the run's pool one reply at a time, reads the final
//! logits and closes; a new session takes its slot at once. Many
//! sessions per connection put several steps in front of a shard per
//! wakeup, so steps run in lane gangs.

use crate::common::{self, argmax, Outcome, RunArgs, Snr, Windows};
use crate::layers::{self, PerLayer};
use crate::reference::{Gates, Lstm};
use crate::wire::{Conn, Readiness, STATUS_OK};
use hwsim::QFormat;
use nn::layers::checkpoint::LayerSnapshot;
use nn::layers::Layer;
use nn::seq::SeqRunnerBatch;
use nn::{CheckpointMeta, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::protocol::{self, Payload, Request, Response};
use serve::{FxSeqRunnerBatch, Model, Registry, ServeConfig, Server};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use tensor::Tensor;

const IN: usize = 8;
const HIDDEN: usize = 16;
const CLASSES: usize = 8;
const BS: usize = 4;
const FRAC_BITS: u8 = 12;
/// Timesteps per sequence.
const STEPS: usize = 16;
/// Concurrent sessions per connection (half float, half fixed-point).
const SESSIONS: usize = 32;
const CONNS: usize = 2;
/// Distinct sequences per run.
const POOL: usize = 64;
/// Largest accepted |fixed-point − hard-gate reference| of a final
/// logit, in units of 2⁻¹². Ten seeded models stayed below 6.7.
const FX_BOUND_LSB: f64 = 16.0;
/// Largest accepted |float − exact reference| of a final logit. Ten
/// seeded models stayed below 2e-7.
const F32_BOUND: f64 = 1e-5;
const MODEL: &str = "lstm";
const MODEL_SEED: u64 = 77;

/// The served network. Its weights are fixed (seed 77, as the streaming
/// demo's), so only the sequences vary with `--seed`.
fn build_model() -> (Network, CheckpointMeta) {
    let mut net = nn::models::lstm_classifier(IN, HIDDEN, CLASSES, BS, MODEL_SEED);
    let importances = net.bcm_importances();
    let mut order: Vec<usize> = (0..importances.len()).collect();
    order.sort_by(|&a, &b| importances[a].total_cmp(&importances[b]));
    net.bcm_eliminate(&order[..importances.len() / 2]);
    let meta = CheckpointMeta {
        input_dims: vec![IN, STEPS, 1],
        frac_bits: FRAC_BITS,
    };
    (net, meta)
}

/// The run's sequences: `POOL × STEPS × IN` floats in [−1, 1).
fn sequences(seed: u64) -> Vec<Vec<Vec<f32>>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e_9ce5);
    (0..POOL)
        .map(|_| {
            (0..STEPS)
                .map(|_| (0..IN).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .collect()
        })
        .collect()
}

struct Live {
    server: Server,
    conns: Vec<Conn>,
}

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

#[derive(Clone, Copy)]
enum Kind {
    Open,
    Step(usize),
    Close,
}

struct Slot {
    fx: bool,
    seq: usize,
    id: u64,
}

struct Phase {
    /// Completions and their client latencies, per second.
    windows: Windows,
    /// Every step reply, including those drained after the window.
    steps: u64,
}

struct Driver {
    /// Step inputs per sequence, float and fixed-point.
    xs: Vec<Vec<Vec<f32>>>,
    xq: Vec<Vec<Vec<i16>>>,
    rngs: Vec<StdRng>,
    /// First session's step reply frames per `[fx][sequence]`; every
    /// later session of the same sequence and mode must match them.
    first: [Vec<Vec<Vec<u8>>>; 2],
    attempted: u64,
    failed: u64,
    mismatches: u64,
}

impl Driver {
    fn new(seed: u64, seqs: &[Vec<Vec<f32>>]) -> Driver {
        let q = QFormat::new(u32::from(FRAC_BITS));
        Driver {
            xs: seqs.to_vec(),
            xq: seqs
                .iter()
                .map(|s| s.iter().map(|x| q.quantize_slice(x)).collect())
                .collect(),
            rngs: (0..CONNS as u64)
                .map(|c| StdRng::seed_from_u64(seed ^ (0x5e55 + c)))
                .collect(),
            first: [vec![Vec::new(); POOL], vec![Vec::new(); POOL]],
            attempted: 0,
            failed: 0,
            mismatches: 0,
        }
    }

    fn send(
        &mut self,
        conn: &mut Conn,
        pending: &mut VecDeque<(usize, Kind, Instant)>,
        slot: usize,
        kind: Kind,
        s: &Slot,
    ) {
        let req = match kind {
            Kind::Open => Request::SessionOpen {
                model: MODEL.to_string(),
                fx: s.fx,
            },
            Kind::Step(t) => Request::SessionStep {
                session: s.id,
                input: if s.fx {
                    Payload::Fx(self.xq[s.seq][t].clone())
                } else {
                    Payload::F32(self.xs[s.seq][t].clone())
                },
            },
            Kind::Close => Request::SessionClose { session: s.id },
        };
        conn.queue(&protocol::encode_request(&req));
        pending.push_back((slot, kind, Instant::now()));
        self.attempted += 1;
    }

    /// Runs sessions on every connection for `len`; sessions still open
    /// at the deadline step to their end and close before this returns.
    fn run(&mut self, live: &mut Live, len: Duration) -> Phase {
        let mut ready = Readiness::new(&live.conns).expect("poller");
        let mut pending: Vec<VecDeque<(usize, Kind, Instant)>> = vec![VecDeque::new(); CONNS];
        let mut slots: Vec<Vec<Slot>> = Vec::with_capacity(CONNS);
        let mut steps = 0u64;
        let start = Instant::now();
        let deadline = start + len;
        let mut windows = Windows::new(start, len);
        for (c, (conn, pend)) in live.conns.iter_mut().zip(&mut pending).enumerate() {
            let conn_slots: Vec<Slot> = (0..SESSIONS)
                .map(|k| Slot {
                    fx: k % 2 == 1,
                    seq: self.rngs[c].gen_range(0..POOL),
                    id: 0,
                })
                .collect();
            for (k, s) in conn_slots.iter().enumerate() {
                self.send(conn, pend, k, Kind::Open, s);
            }
            conn.flush().expect("send");
            slots.push(conn_slots);
        }
        let mut last_progress = Instant::now();
        while pending.iter().any(|p| !p.is_empty()) {
            let now = Instant::now();
            assert!(
                now - last_progress < Duration::from_secs(20),
                "server stopped answering"
            );
            let timeout = deadline
                .saturating_duration_since(now)
                .max(Duration::from_millis(100));
            for c in ready.wait(timeout).expect("poll") {
                assert!(
                    live.conns[c].fill().expect("read"),
                    "server closed the connection"
                );
                let mut next: Vec<(usize, Kind)> = Vec::new();
                while let Some(frame) = live.conns[c].next_frame() {
                    let t_now = Instant::now();
                    last_progress = t_now;
                    let (k, kind, sent) = pending[c].pop_front().expect("reply to a request");
                    let slot = &mut slots[c][k];
                    if frame.first() != Some(&STATUS_OK) {
                        // A refused op ends the session's sequence: no
                        // further step can be checked against its state.
                        self.failed += 1;
                        continue;
                    }
                    match kind {
                        Kind::Open => match protocol::decode_session_response(frame) {
                            Ok(Response::Session { session, .. }) => {
                                slot.id = session;
                                next.push((k, Kind::Step(0)));
                            }
                            _ => self.failed += 1,
                        },
                        Kind::Step(t) => {
                            steps += 1;
                            if t_now <= deadline {
                                windows.record(t_now, (t_now - sent).as_nanos() as u64);
                            }
                            let seen = &mut self.first[usize::from(slot.fx)][slot.seq];
                            if seen.len() == t {
                                seen.push(frame.to_vec());
                            } else if seen[t] != frame {
                                self.mismatches += 1;
                            }
                            next.push((
                                k,
                                if t + 1 < STEPS {
                                    Kind::Step(t + 1)
                                } else {
                                    Kind::Close
                                },
                            ));
                        }
                        Kind::Close => {
                            if t_now < deadline {
                                slot.seq = self.rngs[c].gen_range(0..POOL);
                                next.push((k, Kind::Open));
                            }
                        }
                    }
                }
                for (k, kind) in next {
                    self.send(&mut live.conns[c], &mut pending[c], k, kind, &slots[c][k]);
                }
                live.conns[c].flush().expect("send");
            }
        }
        Phase { windows, steps }
    }
}

/// Per-step outputs of the offline full-sequence forward: the LSTM layer
/// over the whole `[1, F, T, 1]` sequence, then the head per step.
fn offline_per_step(net: &Network, seq: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let mut layers: Vec<Box<dyn Layer>> = net.layers().to_vec();
    let mut x = vec![0.0f32; IN * STEPS];
    for (t, step) in seq.iter().enumerate() {
        for (f, &v) in step.iter().enumerate() {
            x[f * STEPS + t] = v;
        }
    }
    let hs = layers[0].forward(&Tensor::from_vec(x, &[1, IN, STEPS, 1]), false);
    let head = layers
        .iter()
        .position(|l| matches!(l.snapshot(), Some(LayerSnapshot::Linear { .. })))
        .expect("classifier head");
    (0..STEPS)
        .map(|t| {
            let h: Vec<f32> = (0..HIDDEN).map(|j| hs.as_slice()[j * STEPS + t]).collect();
            layers[head]
                .forward(&Tensor::from_vec(h, &[1, HIDDEN]), false)
                .as_slice()
                .to_vec()
        })
        .collect()
}

fn decode(frame: &[u8], fx: bool) -> Option<Payload> {
    match protocol::decode_response(frame, fx) {
        Ok(Response::Output(p)) if p.len() == CLASSES => Some(p),
        _ => None,
    }
}

/// Checks the recorded sessions: float steps bit-identical to the offline
/// forward and close to the exact reference, fixed-point final logits
/// within the bound of the hard-gate reference. Returns the fixed-point
/// SNR and top-1 agreement.
fn check_outputs(out: &mut Outcome, driver: &Driver) -> (f64, f64) {
    let (net, _) = build_model();
    let reference = Lstm::from_network(&net);
    let q = QFormat::new(u32::from(FRAC_BITS));
    let mut snr = Snr::default();
    let (mut agree, mut fx_seen, mut f32_seen) = (0usize, 0usize, 0usize);
    let (mut fx_worst, mut f32_worst) = (0.0f64, 0.0f64);
    for seq in 0..POOL {
        let float = &driver.first[0][seq];
        if float.len() == STEPS {
            f32_seen += 1;
            let offline = offline_per_step(&net, &driver.xs[seq]);
            for (t, frame) in float.iter().enumerate() {
                match decode(frame, false) {
                    Some(Payload::F32(v)) => {
                        let same = v
                            .iter()
                            .zip(&offline[t])
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                        out.check(same, || {
                            format!(
                                "float step {t} of sequence {seq} differs from the offline forward"
                            )
                        });
                    }
                    _ => out.fail(format!(
                        "malformed float step reply (sequence {seq}, step {t})"
                    )),
                }
            }
            let steps: Vec<Vec<f64>> = driver.xs[seq]
                .iter()
                .map(|x| x.iter().map(|&v| f64::from(v)).collect())
                .collect();
            let want = reference.final_logits(&steps, Gates::Exact);
            for (g, w) in offline[STEPS - 1].iter().zip(&want) {
                f32_worst = f32_worst.max((f64::from(*g) - w).abs());
            }
        }
        let fixed = &driver.first[1][seq];
        if fixed.len() == STEPS {
            fx_seen += 1;
            let Some(Payload::Fx(got)) = decode(&fixed[STEPS - 1], true) else {
                out.fail(format!("malformed fx step reply (sequence {seq})"));
                continue;
            };
            let steps: Vec<Vec<f64>> = driver.xq[seq]
                .iter()
                .map(|x| x.iter().map(|&v| q.to_f64(v)).collect())
                .collect();
            let want = reference.final_logits(&steps, Gates::Hard);
            for (&g, &w) in got.iter().zip(&want) {
                let g = q.to_f64(g);
                snr.add(w, g);
                fx_worst = fx_worst.max((g - w).abs() / q.resolution());
            }
            agree += usize::from(argmax(&got) == argmax(&want));
        }
    }
    out.check(fx_seen > 0 && f32_seen > 0, || {
        "no complete session was checked".to_string()
    });
    out.check(fx_worst <= FX_BOUND_LSB, || {
        format!("fx logits off the f64 reference by {fx_worst:.1} LSB (bound {FX_BOUND_LSB})")
    });
    out.check(f32_worst <= F32_BOUND, || {
        format!("float logits off the f64 reference by {f32_worst:.2e} (bound {F32_BOUND:.0e})")
    });
    println!(
        "# stream_lstm: {f32_seen} float and {fx_seen} fx sequences checked, \
         fx worst {fx_worst:.2} LSB, float worst {f32_worst:.2e}, fx SNR {:.2} dB",
        snr.db()
    );
    (snr.db(), agree as f64 / fx_seen.max(1) as f64)
}

/// Modeled PYNQ-Z2 sequences per second: per step, the fused gate grid
/// as a 1×1 convolution over a 1×1 map with its skip bitmap, and the
/// dense head on the dense fallback.
fn sim_fps(net: &Network) -> f64 {
    let mut cfg = hwsim::DataflowConfig::pynq_z2();
    cfg.pe = hwsim::pe::PeBankConfig::new(BS, cfg.pe.p);
    let mut per_step = hwsim::CycleBreakdown::default();
    for bcm in net.bcm_layers() {
        let folded = bcm.folded();
        let (c_out, c_in) = folded.channel_dims();
        let shape = hwsim::LayerShape::conv(c_in, c_out, 1, 1, 1, BS);
        per_step = per_step + crate::train_compress::simulate_tiled(&cfg, &shape, &folded);
    }
    per_step =
        per_step + cfg.simulate_dense(&hwsim::LayerShape::conv(HIDDEN, CLASSES, 1, 1, 1, BS));
    let mut per_seq = hwsim::CycleBreakdown::default();
    for _ in 0..STEPS {
        per_seq = per_seq + per_step;
    }
    cfg.fps(&per_seq)
}

/// Times the session steppers outside the server on the run's inputs:
/// one float step, a float gang of eight, a fixed-point gang of eight.
fn replay_steppers(table: &mut PerLayer, live: &Live, driver: &Driver, quick: bool) {
    let entry = live
        .server
        .registry()
        .resolve(MODEL)
        .expect("published model");
    let seq = entry.seq().expect("streamable model");
    let reps = if quick { 32 } else { 2000 };
    let mut solo = seq.new_f32();
    let mut t = 0usize;
    table.set(
        "nn.seq_step_us",
        common::time_us(reps, || {
            if t.is_multiple_of(STEPS) {
                solo.reset();
            }
            std::hint::black_box(solo.step(&driver.xs[t / STEPS % POOL][t % STEPS]));
            t += 1;
        }),
    );
    let mut gang: Vec<_> = (0..8).map(|_| seq.new_f32()).collect();
    t = 0;
    table.set(
        "nn.seq_gang8_us",
        common::time_us(reps, || {
            if t.is_multiple_of(STEPS) {
                gang.iter_mut().for_each(|r| r.reset());
            }
            let xs: Vec<&[f32]> = (0..8)
                .map(|k| driver.xs[(t / STEPS + k) % POOL][t % STEPS].as_slice())
                .collect();
            let mut members: Vec<_> = gang.iter_mut().collect();
            std::hint::black_box(SeqRunnerBatch::step(&mut members, &xs));
            t += 1;
        }),
    );
    let mut fx_gang: Vec<_> = (0..8).map(|_| seq.new_fx().expect("fx stepper")).collect();
    t = 0;
    table.set(
        "hwsim.fx_lstm_gang8_us",
        common::time_us(reps, || {
            if t.is_multiple_of(STEPS) {
                fx_gang.iter_mut().for_each(|r| r.reset());
            }
            let xs: Vec<&[i16]> = (0..8)
                .map(|k| driver.xq[(t / STEPS + k) % POOL][t % STEPS].as_slice())
                .collect();
            let mut members: Vec<_> = fx_gang.iter_mut().collect();
            std::hint::black_box(FxSeqRunnerBatch::step(&mut members, &xs));
            t += 1;
        }),
    );
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let seqs = sequences(args.seed);
    let (mut live, setup_s) = common::repeated_setup(args.quick, setup);
    let mut driver = Driver::new(args.seed, &seqs);
    let len = args.duration();

    if args.trace {
        let untraced = driver.run(&mut live, len / 2);
        let (traced, snap) = layers::traced(|| driver.run(&mut live, len / 2));
        let mut table = PerLayer::default();
        table.fill_from_snapshot(&snap, traced.steps);
        table.set(
            "telemetry.trace_overhead_ratio",
            untraced.windows.median_rate() / traced.windows.median_rate(),
        );
        replay_steppers(&mut table, &live, &driver, args.quick);
        table.into_metrics(&mut out);
        check_outputs(&mut out, &driver);
    } else {
        let phase = driver.run(&mut live, len);
        out.metric("setup_s", setup_s, "s");
        common::serving_metrics(&mut out, "stream_lstm", &phase.windows, args.quick);
        let (snr, top1) = check_outputs(&mut out, &driver);
        let (net, _) = build_model();
        out.metric("peak_rss_mb", common::peak_rss_mb(), "MiB");
        out.metric("output_snr_db", snr, "dB");
        out.metric("top1_acc", top1, "fraction");
        out.metric("compression_x", common::compression(&net), "x");
        out.metric("sim_fps", sim_fps(&net), "frames/s");
    }
    out.check(driver.mismatches == 0, || {
        format!(
            "{} step replies differ from an earlier session of the same sequence",
            driver.mismatches
        )
    });
    out.attempted = driver.attempted;
    out.failed = driver.failed;
    drop(live.conns);
    live.server.shutdown();
    out
}
