//! Calibrated cost model of the paper's testbed.
//!
//! Every constant is tied to a measurement published in the paper; the
//! simulator *predicts* all other cells from these anchors. Provenance:
//!
//! | constant | anchor |
//! |---|---|
//! | `pyg_sample_ns_per_edge` | Table 2: PyG products sampling, P=1 → 71.1 s over ≈ 146 M modeled edges |
//! | `salient_sample_ns_per_edge` | Table 2: SALIENT 28.3 s (the 2.5× of §4.1) |
//! | `sample_serial_frac_*` | Table 2 scaling P=1 → P=20 (PyG 9.9×, SALIENT 14.9×) |
//! | `slice_bw_*` | Table 2 slicing: 7.6 s (PyG) / 7.3 s (SALIENT) at P=1 over ≈ 20 GB |
//! | `slice_serial_frac_*` | Table 2 slicing scaling (PyG 6.3×, SALIENT 12.2×) |
//! | `dma_bw` | §3.3: 12.3 GB/s peak pinned DMA |
//! | `rt_latency_ns` | §4.3: baseline reaches only 75 % of peak due to per-sparse-tensor assertion round trips |
//! | `dma_eff_pipelined` | §4.3: 99 % of peak once assertions are skipped |
//! | `gpu_flops` / `gpu_mem_bw` | Table 1: papers Train(GPU) = 13.9 s over 1179 batches on a V100 |
//! | `nic_bw` | §6: 10 GigE interconnect |
//! | `mp_copy_bw` | §4.2: multiprocessing hand-off "effectively halves the observed memory bandwidth" |

use crate::workload::BatchWorkload;

/// Which sampler/slicing implementation a stage uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Impl {
    /// The tuned PyG baseline (STL structures, DataLoader workers).
    Pyg,
    /// SALIENT (flat structures, shared-memory threads).
    Salient,
}

/// GNN architecture being trained (Figure 6 set).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GnnArch {
    /// GraphSAGE with mean aggregation.
    Sage,
    /// Graph attention network, 1 head.
    Gat,
    /// Graph isomorphism network (2-layer MLP update).
    Gin,
    /// GraphSAGE with residual connections and Inception-style readout.
    SageRi,
}

impl GnnArch {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            GnnArch::Sage => "SAGE",
            GnnArch::Gat => "GAT",
            GnnArch::Gin => "GIN",
            GnnArch::SageRi => "SAGE-RI",
        }
    }

    /// Approximate trainable-parameter bytes (f32) for the all-reduce model.
    pub(crate) fn param_bytes(&self, feat_dim: u32, hidden: u32, classes: u32) -> f64 {
        let (f, h, c) = (feat_dim as f64, hidden as f64, classes as f64);
        let params = match self {
            // Two weight matrices (self + neighbor) per SAGEConv layer.
            GnnArch::Sage => 2.0 * f * h + 2.0 * (2.0 * h * h) + h * c,
            // One weight matrix plus attention vectors per layer.
            GnnArch::Gat => (f * h + 2.0 * h) + 2.0 * (h * h + 2.0 * h) + h * c,
            // Two-layer MLP per GIN layer plus readout MLP.
            GnnArch::Gin => (f * h + h * h) + 2.0 * (2.0 * h * h) + (h * h + h * c),
            // SAGE plus residual linears, batch norms, and concat readout.
            GnnArch::SageRi => 2.0 * f * h + 2.0 * (2.0 * h * h) + f * h + 4.0 * h * c,
        };
        params * 4.0
    }
}

/// The calibrated testbed model (one 20-core Xeon 6248 + V100 per GPU slot).
#[derive(Clone, Debug)]
pub struct CostModel {
    /// PyG sampling cost per sampled edge, single thread (ns).
    pub pyg_sample_ns_per_edge: f64,
    /// SALIENT sampling cost per sampled edge, single thread (ns).
    pub salient_sample_ns_per_edge: f64,
    /// Amdahl serial fraction of PyG multiprocessing sampling.
    pub sample_serial_frac_pyg: f64,
    /// Amdahl serial fraction of SALIENT shared-memory sampling.
    pub sample_serial_frac_salient: f64,
    /// Single-thread slicing bandwidth of PyG (bytes/s).
    pub slice_bw_pyg: f64,
    /// Single-thread slicing bandwidth of SALIENT (bytes/s).
    pub slice_bw_salient: f64,
    /// Amdahl serial fraction of PyG OpenMP slicing (DRAM contention).
    pub slice_serial_frac_pyg: f64,
    /// Amdahl serial fraction of SALIENT per-thread serial slicing.
    pub slice_serial_frac_salient: f64,
    /// Bandwidth of the extra multiprocessing shared-memory copy (bytes/s).
    pub mp_copy_bw: f64,
    /// Peak pinned-memory DMA bandwidth (bytes/s).
    pub dma_bw: f64,
    /// Blocking CPU↔GPU round-trip per MFG layer in the baseline transfer
    /// path (sparse-tensor validity assertions), ns.
    pub rt_latency_ns: f64,
    /// Fraction of peak DMA achieved once assertions are skipped.
    pub dma_eff_pipelined: f64,
    /// Effective GPU compute throughput for GNN kernels (FLOP/s).
    pub gpu_flops: f64,
    /// Effective GPU memory bandwidth for gather/scatter kernels (bytes/s).
    pub gpu_mem_bw: f64,
    /// Fixed per-batch kernel-launch + optimizer overhead (ns).
    pub gpu_overhead_ns: f64,
    /// Per-machine network bandwidth (bytes/s), 10 GigE.
    pub nic_bw: f64,
    /// Per-hop all-reduce latency (ns).
    pub allreduce_latency_ns: f64,
    /// Fixed per-batch main-loop overhead of the PyG DataLoader path
    /// (Python batch collation), ns. Together with the IPC term below it is
    /// why ogbn-arxiv's baseline spends 58 % in "batch prep" (Table 1)
    /// despite its tiny MFGs.
    pub pyg_batch_overhead_ns: f64,
    /// Fixed per-batch overhead of SALIENT's C++ prep threads, ns.
    pub salient_batch_overhead_ns: f64,
    /// Main-process IPC bandwidth for receiving the sampled MFG structure
    /// from DataLoader worker processes (bytes/s). SALIENT's shared-memory
    /// threads eliminate this copy entirely (§4.2).
    pub ipc_bw: f64,
    /// DataLoader sampling worker processes in the PyG baseline. Standard
    /// practice leaves cores free for the main process's OpenMP slicing, so
    /// this is below the 20 hardware cores per GPU.
    pub pyg_dataloader_workers: usize,
}

impl CostModel {
    /// The model calibrated to the paper's hardware (see module docs).
    pub fn paper_hardware() -> Self {
        CostModel {
            pyg_sample_ns_per_edge: 475.0,
            salient_sample_ns_per_edge: 190.0,
            sample_serial_frac_pyg: 0.054,
            sample_serial_frac_salient: 0.018,
            slice_bw_pyg: 2.66e9,
            slice_bw_salient: 2.77e9,
            slice_serial_frac_pyg: 0.114,
            slice_serial_frac_salient: 0.034,
            mp_copy_bw: 5.5e9,
            dma_bw: 12.3e9,
            rt_latency_ns: 1.25e6,
            dma_eff_pipelined: 0.99,
            gpu_flops: 5.0e12,
            gpu_mem_bw: 650.0e9,
            gpu_overhead_ns: 1.0e6,
            nic_bw: 1.25e9,
            allreduce_latency_ns: 50_000.0,
            pyg_batch_overhead_ns: 3.0e6,
            salient_batch_overhead_ns: 0.2e6,
            ipc_bw: 2.0e9,
            pyg_dataloader_workers: 12,
        }
    }

    /// Per-batch main-process cost of receiving a worker-sampled MFG over
    /// multiprocessing IPC (ns).
    pub(crate) fn ipc_receive_ns(&self, w: &BatchWorkload) -> f64 {
        self.pyg_batch_overhead_ns + w.structure_bytes() / self.ipc_bw * 1e9
    }

    /// Amdahl-style parallel time: `t1 * (serial + (1 - serial) / p)`.
    pub fn parallel_time(t1_ns: f64, threads: usize, serial_frac: f64) -> f64 {
        t1_ns * (serial_frac + (1.0 - serial_frac) / threads.max(1) as f64)
    }

    /// Single-thread sampling time for one batch (ns).
    pub fn sample_batch_ns(&self, who: Impl, w: &BatchWorkload) -> f64 {
        let per_edge = match who {
            Impl::Pyg => self.pyg_sample_ns_per_edge,
            Impl::Salient => self.salient_sample_ns_per_edge,
        };
        w.mfg_edges * per_edge
    }

    /// Single-thread slicing time for one batch (ns).
    pub fn slice_batch_ns(&self, who: Impl, w: &BatchWorkload) -> f64 {
        let bw = match who {
            Impl::Pyg => self.slice_bw_pyg,
            Impl::Salient => self.slice_bw_salient,
        };
        w.feature_bytes() / bw * 1e9
    }

    /// CPU→GPU transfer time for one batch (ns). `skip_assertions` models
    /// SALIENT's removal of the per-sparse-tensor validity checks (§4.3).
    pub(crate) fn transfer_batch_ns(&self, w: &BatchWorkload, skip_assertions: bool) -> f64 {
        let layers = w.hop_edges.len() as f64;
        if skip_assertions {
            w.transfer_bytes() / (self.dma_bw * self.dma_eff_pipelined) * 1e9
        } else {
            w.transfer_bytes() / self.dma_bw * 1e9 + layers * self.rt_latency_ns
        }
    }

    /// Forward-pass FLOPs of one batch for an architecture.
    ///
    /// `hop_nodes` is ordered batch-outward, so forward layer `i` (input
    /// side first) has `n_dst = hop_nodes[L-1-i]` output rows and aggregates
    /// `hop_edges[L-1-i]` edges.
    pub(crate) fn forward_flops(
        &self,
        arch: GnnArch,
        w: &BatchWorkload,
        hidden: u32,
        classes: u32,
    ) -> f64 {
        let l = w.hop_edges.len();
        let h = hidden as f64;
        let mut flops = 0.0;
        for i in 0..l {
            let in_dim = if i == 0 { w.feat_dim as f64 } else { h };
            let n_dst = w.hop_nodes[l - 1 - i];
            let n_src = w.hop_nodes[l - i];
            let edges = w.hop_edges[l - 1 - i];
            flops += match arch {
                // Two dense transforms on destination rows.
                GnnArch::Sage => 4.0 * n_dst * in_dim * h,
                // Transform all sources (attention needs them), plus
                // per-edge attention arithmetic.
                GnnArch::Gat => 2.0 * n_src * in_dim * h + 8.0 * edges,
                // Sum aggregation then a 2-layer MLP on destinations.
                GnnArch::Gin => 2.0 * n_dst * (in_dim * h + h * h),
                // SAGE plus residual linear and batch norm.
                GnnArch::SageRi => 4.0 * n_dst * in_dim * h + 2.0 * n_dst * in_dim * h,
            };
        }
        // Readout.
        let batch = w.batch_size as f64;
        flops += match arch {
            GnnArch::Sage | GnnArch::Gat => 2.0 * batch * h * classes as f64,
            GnnArch::Gin => 2.0 * batch * (h * h + h * classes as f64),
            GnnArch::SageRi => 2.0 * batch * ((l as f64 + 1.0) * h * h + h * classes as f64),
        };
        flops
    }

    /// Bytes moved by gather/scatter aggregation kernels per batch.
    fn aggregation_bytes(&self, arch: GnnArch, w: &BatchWorkload, hidden: u32) -> f64 {
        let l = w.hop_edges.len();
        let h = hidden as f64;
        let mut bytes = 0.0;
        for i in 0..l {
            let in_dim = if i == 0 { w.feat_dim as f64 } else { h };
            let edges = w.hop_edges[l - 1 - i];
            let width = match arch {
                GnnArch::Gat => h, // aggregates transformed features
                _ => in_dim,
            };
            bytes += edges * width * 4.0 * 2.0;
        }
        bytes
    }

    /// GPU time for one training iteration (forward + backward + update) of
    /// one batch (ns).
    pub(crate) fn gpu_train_batch_ns(
        &self,
        arch: GnnArch,
        w: &BatchWorkload,
        hidden: u32,
        classes: u32,
    ) -> f64 {
        let flops = 3.0 * self.forward_flops(arch, w, hidden, classes);
        let agg = 2.0 * self.aggregation_bytes(arch, w, hidden);
        flops / self.gpu_flops * 1e9 + agg / self.gpu_mem_bw * 1e9 + self.gpu_overhead_ns
    }

    /// GPU time for one inference (forward-only) batch (ns).
    pub(crate) fn gpu_infer_batch_ns(
        &self,
        arch: GnnArch,
        w: &BatchWorkload,
        hidden: u32,
        classes: u32,
    ) -> f64 {
        let flops = self.forward_flops(arch, w, hidden, classes);
        let agg = self.aggregation_bytes(arch, w, hidden);
        flops / self.gpu_flops * 1e9 + agg / self.gpu_mem_bw * 1e9 + self.gpu_overhead_ns
    }

    /// Ring all-reduce time across `ranks` for `bytes` of gradients (ns).
    /// Within one machine (`ranks <= gpus_per_machine`) gradients move over
    /// the PCIe fabric; across machines over the NIC, which the GPUs of a
    /// machine share, plus a latency per ring step.
    pub(crate) fn allreduce_ns(&self, ranks: usize, gpus_per_machine: usize, bytes: f64) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        let n = ranks as f64;
        let ring_bytes = 2.0 * (n - 1.0) / n * bytes;
        if ranks <= gpus_per_machine {
            ring_bytes / self.dma_bw * 1e9
        } else {
            let shared = self.nic_bw / gpus_per_machine as f64;
            ring_bytes / shared * 1e9 + 2.0 * (n - 1.0) * self.allreduce_latency_ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::expected_batch;
    use salient_graph::DatasetStats;

    fn products_w() -> BatchWorkload {
        expected_batch(&DatasetStats::products(), &[15, 10, 5], 1024)
    }

    #[test]
    fn sampling_anchors_reproduce_table2_p1() {
        let m = CostModel::paper_hardware();
        let w = products_w();
        let batches = DatasetStats::products().batches_per_epoch(1024) as f64;
        let pyg_epoch_s = m.sample_batch_ns(Impl::Pyg, &w) * batches / 1e9;
        let sal_epoch_s = m.sample_batch_ns(Impl::Salient, &w) * batches / 1e9;
        assert!(
            (55.0..90.0).contains(&pyg_epoch_s),
            "PyG P=1 sampling should be ≈71 s, got {pyg_epoch_s:.1}"
        );
        let speedup = pyg_epoch_s / sal_epoch_s;
        assert!(
            (2.3..2.7).contains(&speedup),
            "SALIENT sampler speedup should be ≈2.5×, got {speedup:.2}"
        );
    }

    #[test]
    fn sampling_scales_like_table2_p20() {
        let m = CostModel::paper_hardware();
        let w = products_w();
        let batches = DatasetStats::products().batches_per_epoch(1024) as f64;
        let t1 = m.sample_batch_ns(Impl::Pyg, &w) * batches;
        let t20 = CostModel::parallel_time(t1, 20, m.sample_serial_frac_pyg);
        let s = t20 / 1e9;
        assert!((5.5..9.5).contains(&s), "PyG P=20 sampling ≈7.2 s, got {s:.1}");

        let t1s = m.sample_batch_ns(Impl::Salient, &w) * batches;
        let t20s = CostModel::parallel_time(t1s, 20, m.sample_serial_frac_salient);
        let ss = t20s / 1e9;
        assert!((1.4..2.6).contains(&ss), "SALIENT P=20 ≈1.9 s, got {ss:.1}");
    }

    #[test]
    fn slicing_anchors_reproduce_table2() {
        let m = CostModel::paper_hardware();
        let w = products_w();
        let batches = DatasetStats::products().batches_per_epoch(1024) as f64;
        let pyg1 = m.slice_batch_ns(Impl::Pyg, &w) * batches / 1e9;
        assert!((5.0..11.0).contains(&pyg1), "PyG slicing P=1 ≈7.6 s, got {pyg1:.1}");
        let pyg20 =
            CostModel::parallel_time(m.slice_batch_ns(Impl::Pyg, &w) * batches, 20, m.slice_serial_frac_pyg)
                / 1e9;
        assert!((0.8..1.9).contains(&pyg20), "PyG slicing P=20 ≈1.2 s, got {pyg20:.2}");
    }

    #[test]
    fn transfer_efficiency_matches_section_3_3() {
        let m = CostModel::paper_hardware();
        let w = expected_batch(&DatasetStats::papers(), &[15, 10, 5], 1024);
        let pure = w.transfer_bytes() / m.dma_bw * 1e9;
        let baseline = m.transfer_batch_ns(&w, false);
        let eff = pure / baseline;
        assert!(
            (0.65..0.90).contains(&eff),
            "baseline transfer efficiency ≈75 %, got {:.0} %",
            eff * 100.0
        );
        let pipelined = m.transfer_batch_ns(&w, true);
        let eff_p = pure / pipelined;
        assert!(eff_p > 0.95, "pipelined ≈99 %, got {:.2}", eff_p);
    }

    #[test]
    fn gpu_train_time_in_v100_ballpark() {
        // Table 1: papers Train(GPU) = 13.9 s over 1179 batches ⇒ ≈11.8 ms.
        let m = CostModel::paper_hardware();
        let w = expected_batch(&DatasetStats::papers(), &[15, 10, 5], 1024);
        let ms = m.gpu_train_batch_ns(GnnArch::Sage, &w, 256, 172) / 1e6;
        assert!(
            (6.0..20.0).contains(&ms),
            "SAGE papers GPU batch ≈11.8 ms, got {ms:.1}"
        );
    }

    #[test]
    fn arch_compute_ordering_matches_figure6() {
        // Computation density: SAGE-RI > GIN ≈ GAT > SAGE (the paper's
        // stated ordering of compute density; SAGE trains fastest).
        let m = CostModel::paper_hardware();
        let stats = DatasetStats::papers();
        let sage = m.gpu_train_batch_ns(GnnArch::Sage, &expected_batch(&stats, &[15, 10, 5], 1024), 256, 172);
        let gat = m.gpu_train_batch_ns(GnnArch::Gat, &expected_batch(&stats, &[15, 10, 5], 1024), 256, 172);
        let gin = m.gpu_train_batch_ns(GnnArch::Gin, &expected_batch(&stats, &[20, 20, 20], 1024), 256, 172);
        let ri = m.gpu_train_batch_ns(GnnArch::SageRi, &expected_batch(&stats, &[12, 12, 12], 1024), 1024, 172);
        assert!(gat > sage, "GAT denser than SAGE");
        assert!(gin > sage, "GIN (fanout 20³) denser than SAGE");
        assert!(ri > gat && ri > gin, "SAGE-RI is the densest");
    }

    #[test]
    fn allreduce_scales_with_ranks_and_bytes() {
        let m = CostModel::paper_hardware();
        assert_eq!(m.allreduce_ns(1, 1, 1e6), 0.0);
        let t2 = m.allreduce_ns(2, 1, 1.3e6);
        let t16 = m.allreduce_ns(16, 1, 1.3e6);
        assert!(t16 > t2);
        // Ring all-reduce asymptote: at most ~2× the 2-rank cost in the
        // bandwidth term.
        assert!(t16 < 4.0 * t2);
        // Two GPUs of one machine: the ring's bytes over PCIe, no NIC
        // latency. Two GPUs a machine across machines: half a NIC each.
        assert_eq!(m.allreduce_ns(2, 2, 1.3e6), 1.3e6 / m.dma_bw * 1e9);
        assert!(m.allreduce_ns(16, 2, 1.3e6) > t16);
    }

    #[test]
    fn param_bytes_sane() {
        let sage = GnnArch::Sage.param_bytes(128, 256, 172);
        assert!((0.5e6..4.0e6).contains(&sage), "SAGE ≈1.5 MB of params, got {sage}");
        let ri = GnnArch::SageRi.param_bytes(128, 1024, 172);
        assert!(ri > sage);
    }
}
