//! The benchmark's own f64 reference models.
//!
//! Each reference is built from the model's layer snapshots — the folded
//! circulant defining vectors the program deploys — and expands every
//! block densely by the circulant definition `C[i][j] = w[(i − j) mod BS]`
//! (the convention `circulant::CirculantMatrix` documents). No FFT, no
//! spectral cache and no fixed-point code of the program is used, so a
//! fault in the program's spectral or fixed-point datapath cannot hide in
//! the reference.

use nn::layers::checkpoint::LayerSnapshot;
use nn::Network;

/// A dense f64 matrix expanded from a block-circulant grid.
#[derive(Debug, Clone)]
pub struct Dense {
    cols: usize,
    w: Vec<f64>,
}

impl Dense {
    /// Expands a `rb × cb` grid of `bs`-sized circulant blocks whose
    /// defining vectors lie row-major in `vecs` (`[rb·cb, bs]`).
    pub fn from_circulant(bs: usize, rb: usize, cb: usize, vecs: &[f32]) -> Dense {
        assert_eq!(vecs.len(), rb * cb * bs, "defining vectors of the grid");
        let (rows, cols) = (rb * bs, cb * bs);
        let mut w = vec![0.0; rows * cols];
        for bo in 0..rb {
            for bi in 0..cb {
                let v = &vecs[(bo * cb + bi) * bs..(bo * cb + bi + 1) * bs];
                for i in 0..bs {
                    for j in 0..bs {
                        w[(bo * bs + i) * cols + bi * bs + j] = f64::from(v[(i + bs - j) % bs]);
                    }
                }
            }
        }
        Dense { cols, w }
    }

    /// A plain dense `[rows, cols]` matrix.
    pub fn from_rows(rows: usize, cols: usize, w: &[f32]) -> Dense {
        assert_eq!(w.len(), rows * cols, "dense weight length");
        Dense {
            cols,
            w: w.iter().map(|&v| f64::from(v)).collect(),
        }
    }

    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "reference matvec width");
        self.w
            .chunks_exact(self.cols)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }
}

/// The dense reference of one tap of a block-circulant convolution
/// snapshot (`vecs` is tap-major, then output block, then input block).
pub fn conv_tap(bs: usize, c_out: usize, c_in: usize, tap: usize, vecs: &[f32]) -> Dense {
    let (rb, cb) = (c_out / bs, c_in / bs);
    let per_tap = rb * cb * bs;
    Dense::from_circulant(bs, rb, cb, &vecs[tap * per_tap..(tap + 1) * per_tap])
}

/// Reference of a stack of 1×1 block-circulant convolutions with ReLUs
/// between them — the serving demo's fully connected head.
pub struct FcStack {
    layers: Vec<Dense>,
    relu_after: Vec<bool>,
}

impl FcStack {
    pub fn from_network(net: &Network) -> FcStack {
        let mut layers = Vec::new();
        let mut relu_after = Vec::new();
        for layer in net.layers() {
            match layer.snapshot().expect("serving models snapshot") {
                LayerSnapshot::BcmConv2d {
                    c_in,
                    c_out,
                    kernel,
                    bs,
                    vecs,
                    ..
                } => {
                    assert_eq!(kernel, 1, "the FC reference covers 1×1 layers");
                    layers.push(conv_tap(bs, c_out, c_in, 0, &vecs));
                    relu_after.push(false);
                }
                LayerSnapshot::Relu => *relu_after.last_mut().expect("relu after a layer") = true,
                other => panic!("unexpected layer in the FC stack: {other:?}"),
            }
        }
        FcStack { layers, relu_after }
    }

    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut cur = x.to_vec();
        for (w, &relu) in self.layers.iter().zip(&self.relu_after) {
            cur = w.matvec(&cur);
            if relu {
                cur.iter_mut().for_each(|v| *v = v.max(0.0));
            }
        }
        cur
    }
}

/// Gate nonlinearities of the LSTM reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gates {
    /// Logistic sigmoid and tanh, as the float stepper computes them.
    Exact,
    /// `clamp(x/4 + 1/2, 0, 1)` and `clamp(x, −1, 1)`: the piecewise-
    /// linear gates the fixed-point cell is specified with, so the
    /// reference isolates the datapath's quantization error.
    Hard,
}

/// Reference of the streaming classifier: one block-circulant LSTM cell
/// (fused `[4H, F+H]` gate grid over `[x; h]`, gates `i, f, g, o`)
/// followed by a dense head applied to each step's hidden state.
pub struct Lstm {
    gates: Dense,
    bias: Vec<f64>,
    head: Dense,
    head_bias: Vec<f64>,
    pub in_features: usize,
    pub hidden: usize,
}

impl Lstm {
    pub fn from_network(net: &Network) -> Lstm {
        let mut cell = None;
        let mut head = None;
        for layer in net.layers() {
            match layer.snapshot().expect("serving models snapshot") {
                LayerSnapshot::BcmLstm {
                    in_features,
                    hidden,
                    bs,
                    vecs,
                    bias,
                    ..
                } => {
                    let grid = Dense::from_circulant(
                        bs,
                        4 * hidden / bs,
                        (in_features + hidden) / bs,
                        &vecs,
                    );
                    cell = Some((grid, bias, in_features, hidden));
                }
                LayerSnapshot::Linear {
                    in_features,
                    out_features,
                    weight,
                    bias,
                } => head = Some((Dense::from_rows(out_features, in_features, &weight), bias)),
                LayerSnapshot::GlobalAvgPool => {}
                other => panic!("unexpected layer in the LSTM classifier: {other:?}"),
            }
        }
        let (gates, bias, in_features, hidden) = cell.expect("an LSTM cell");
        let (head, head_bias) = head.expect("a dense head");
        Lstm {
            gates,
            bias: bias.iter().map(|&b| f64::from(b)).collect(),
            head,
            head_bias: head_bias.iter().map(|&b| f64::from(b)).collect(),
            in_features,
            hidden,
        }
    }

    /// Runs a whole sequence from zero state; returns the head output of
    /// the last step.
    pub fn final_logits(&self, steps: &[Vec<f64>], gates: Gates) -> Vec<f64> {
        let hd = self.hidden;
        type Act = fn(f64) -> f64;
        let (sig, tanh): (Act, Act) = match gates {
            Gates::Exact => (|x| 1.0 / (1.0 + (-x).exp()), f64::tanh),
            Gates::Hard => (|x| (x / 4.0 + 0.5).clamp(0.0, 1.0), |x| x.clamp(-1.0, 1.0)),
        };
        let mut h = vec![0.0; hd];
        let mut c = vec![0.0; hd];
        let mut xh = vec![0.0; self.in_features + hd];
        for x in steps {
            xh[..self.in_features].copy_from_slice(x);
            xh[self.in_features..].copy_from_slice(&h);
            let mut pre = self.gates.matvec(&xh);
            for (p, b) in pre.iter_mut().zip(&self.bias) {
                *p += b;
            }
            for j in 0..hd {
                let i = sig(pre[j]);
                let f = sig(pre[hd + j]);
                let g = tanh(pre[2 * hd + j]);
                let o = sig(pre[3 * hd + j]);
                c[j] = f * c[j] + i * g;
                h[j] = o * tanh(c[j]);
            }
        }
        let mut y = self.head.matvec(&h);
        for (v, b) in y.iter_mut().zip(&self.head_bias) {
            *v += b;
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circulant_expansion_matches_the_library_convention() {
        let bs = 4;
        let vecs: Vec<f32> = (0..2 * 3 * bs).map(|i| (i as f32 * 0.37).sin()).collect();
        let blocks = vecs
            .chunks_exact(bs)
            .map(|v| circulant::CirculantMatrix::new(v.to_vec()))
            .collect();
        let grid = circulant::BlockCirculant::from_blocks(bs, 2, 3, blocks);
        let x: Vec<f32> = (0..3 * bs).map(|i| (i as f32 * 0.11).cos()).collect();
        let want = grid.matvec_naive(&x);
        let got = Dense::from_circulant(bs, 2, 3, &vecs)
            .matvec(&x.iter().map(|&v| f64::from(v)).collect::<Vec<_>>());
        for (w, g) in want.iter().zip(&got) {
            assert!((f64::from(*w) - g).abs() < 1e-5, "{w} vs {g}");
        }
    }
}
