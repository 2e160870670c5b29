//! Per-layer metrics of the traced run.
//!
//! Every traced run prints the whole table, so every workload reports the
//! same names. A metric whose layer does no work on the workload reads 0
//! (the server is not running during `train_compress`, nothing trains
//! during the serving workloads); README.md maps each metric to the
//! workload and end-to-end metric it explains.
//!
//! Counter and histogram figures come from `telemetry::snapshot()` after
//! a traced phase: the program's own probes, enabled for that phase only.
//! The histograms use log₂ buckets, so their percentiles are rounded up
//! to powers of two; only count/sum means are reported. Figures named
//! `*_us` that are not histogram means are timed by the benchmark around
//! public calls, on the workload's own inputs.

use telemetry::Snapshot;

/// Every per-layer metric: name, unit, and whether it goes in the result
/// line. The result line carries the metrics that both gated workloads
/// measure, or that are counts and ratios; a time that one of them
/// cannot measure (a serve stage during `train_compress`, a training
/// epoch during `infer_fx`) would read 0 on every run, so those are
/// printed on `#` lines instead, with the rest of the table.
pub const METRICS: &[(&str, &str, bool)] = &[
    ("serve.batch_size_mean", "req", true),
    ("serve.batch_wait_us", "us", false),
    ("serve.reply_us", "us", false),
    ("serve.batch_exec_us", "us", false),
    ("serve.server_total_us", "us", false),
    ("serve.gang_width_mean", "sessions", false),
    ("serve.gang_step_us", "us", false),
    ("serve.steps_ganged_ratio", "ratio", false),
    ("hwsim.fx_batch8_us", "us", false),
    ("hwsim.fx_sample_us", "us", false),
    ("hwsim.emac_blocks_per_op", "count", true),
    ("hwsim.input_ffts_per_op", "count", true),
    ("hwsim.output_iffts_per_op", "count", true),
    ("hwsim.fx_lstm_gang8_us", "us", false),
    ("hwsim.sim_frame_cycles", "cycles", true),
    ("hwsim.sim_host_ms", "ms", true),
    ("nn.seq_gang8_us", "us", false),
    ("nn.seq_step_us", "us", false),
    ("nn.train_epoch_s", "s", false),
    ("nn.eval_s", "s", false),
    ("nn.train_shard_us", "us", false),
    ("nn.grad_reduce_us", "us", false),
    ("core.prune_rounds", "count", true),
    ("core.prune_round_s", "s", false),
    ("circulant.row_matvec_us", "us", false),
    ("circulant.emac_skip_ratio", "ratio", false),
    ("circulant.spectra_hit_ratio", "ratio", false),
    ("fft.forward_us", "us", false),
    ("fft.inverse_us", "us", false),
    ("fft.plan_misses_per_op", "count", false),
    ("tensor.fanouts_per_op", "count", true),
    ("tensor.workers_spawned_per_op", "count", true),
    ("tensor.scope_wall_us", "us", true),
    ("tensor.worker_utilization", "ratio", true),
    ("telemetry.trace_overhead_ratio", "ratio", true),
];

/// The per-layer table of one traced run.
pub struct PerLayer {
    values: Vec<f64>,
}

impl Default for PerLayer {
    fn default() -> Self {
        PerLayer {
            values: vec![0.0; METRICS.len()],
        }
    }
}

impl PerLayer {
    /// Sets one metric by name.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`METRICS`].
    pub fn set(&mut self, name: &str, value: f64) {
        let i = METRICS
            .iter()
            .position(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.values[i] = if value.is_finite() { value } else { 0.0 };
    }

    /// Fills the metrics every workload can read from the probes: the
    /// serve stages, hwsim fx counters, the trainer's shard histograms,
    /// circulant, fft and tensor. `ops` is the number of workload
    /// operations the traced phase completed.
    pub fn fill_from_snapshot(&mut self, snap: &Snapshot, ops: u64) {
        let ops = ops.max(1) as f64;
        let mean = |name: &str| {
            snap.histograms
                .get(name)
                .filter(|h| h.count > 0)
                .map_or(0.0, |h| h.sum as f64 / h.count as f64)
        };
        let sum = |name: &str| snap.histograms.get(name).map_or(0.0, |h| h.sum as f64);
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

        self.set("serve.batch_size_mean", mean("serve.batch.size"));
        self.set(
            "serve.batch_wait_us",
            mean("serve.stage.batch_wait_ns") / 1e3,
        );
        self.set("serve.reply_us", mean("serve.stage.reply_ns") / 1e3);
        self.set("serve.batch_exec_us", mean("serve.batch.exec_ns") / 1e3);
        self.set("serve.server_total_us", mean("serve.stage.total_ns") / 1e3);
        self.set("serve.gang_width_mean", mean("serve.session.gang_width"));
        self.set("serve.gang_step_us", mean("serve.session.step_ns") / 1e3);
        self.set(
            "serve.steps_ganged_ratio",
            ratio(
                counter("serve.sessions.steps_ganged"),
                counter("serve.sessions.steps"),
            ),
        );
        self.set(
            "hwsim.emac_blocks_per_op",
            counter("hwsim.fx.emac_blocks") / ops,
        );
        self.set(
            "hwsim.input_ffts_per_op",
            counter("hwsim.fx.input_ffts") / ops,
        );
        self.set(
            "hwsim.output_iffts_per_op",
            counter("hwsim.fx.output_iffts") / ops,
        );
        self.set(
            "nn.train_shard_us",
            mean("nn.train.parallel.shard_ns") / 1e3,
        );
        self.set(
            "nn.grad_reduce_us",
            mean("nn.train.parallel.reduce_ns") / 1e3,
        );
        self.set(
            "circulant.row_matvec_us",
            mean("circulant.row_matvec_ns") / 1e3,
        );
        let skipped = counter("circulant.emac.blocks_skipped");
        self.set(
            "circulant.emac_skip_ratio",
            ratio(skipped, skipped + counter("circulant.emac.blocks_computed")),
        );
        let hits = counter("circulant.spectra.hits");
        self.set(
            "circulant.spectra_hit_ratio",
            ratio(hits, hits + counter("circulant.spectra.builds")),
        );
        self.set("fft.forward_us", mean("fft.forward_ns") / 1e3);
        self.set("fft.inverse_us", mean("fft.inverse_ns") / 1e3);
        self.set(
            "fft.plan_misses_per_op",
            counter("fft.plan_cache.misses") / ops,
        );
        self.set(
            "tensor.fanouts_per_op",
            counter("tensor.parallel.jobs") / ops,
        );
        self.set(
            "tensor.workers_spawned_per_op",
            counter("tensor.parallel.workers_spawned") / ops,
        );
        self.set(
            "tensor.scope_wall_us",
            mean("tensor.parallel.scope_wall") / 1e3,
        );
        let workers = tensor::parallel::max_workers() as f64;
        self.set(
            "tensor.worker_utilization",
            ratio(
                sum("tensor.parallel.worker_busy"),
                sum("tensor.parallel.scope_wall") * workers,
            ),
        );
    }

    /// Appends the result-line metrics to a run's metrics and prints the
    /// others.
    pub fn into_metrics(self, out: &mut crate::common::Outcome) {
        for (&(name, unit, in_result), v) in METRICS.iter().zip(self.values) {
            if in_result {
                out.metric(name, v, unit);
            } else {
                println!("# layer {name} = {v} {unit}");
            }
        }
    }
}

/// Runs `phase` with the program's telemetry switched on, from zeroed
/// counters, and returns its result with the snapshot taken at its end.
/// Telemetry is switched off again before returning, so timings taken
/// afterwards are not charged for the probes.
pub fn traced<T>(phase: impl FnOnce() -> T) -> (T, Snapshot) {
    telemetry::reset();
    telemetry::set_enabled(true);
    let out = phase();
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);
    (out, snap)
}
