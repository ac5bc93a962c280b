// Package conformance holds the end-to-end conformance suite for the live
// networked PBS store: tests that boot a real multi-replica cluster over
// loopback (internal/server), drive tens of thousands of operations
// through the binary-protocol client and load generator (internal/client),
// and assert that the staleness and latency the live system measures agree
// with the wars.SimulateBatch predictions — the live-system analogue of
// internal/experiments/validation.go, which validates the predictor
// against the discrete-event store only.
//
// The suite has two tiers, mirroring the paper:
//
//   - Validation-grade scenarios use exponential latency models with
//     5-20 ms means, exactly like the paper's Section 5.2 validation
//     against modified Cassandra. Their latency distributions are wide, so
//     both bounds are asserted strictly: measured t-visibility within 5%
//     RMSE of prediction and latency quantiles within 10% N-RMSE.
//
//   - Production-model scenarios use the Table 3 LNKD-SSD / LNKD-DISK /
//     YMMR fits, time-scaled (dist.ScaleModel) so injected delays dominate
//     loopback noise. t-visibility and write latency are asserted at the
//     same strict bounds. Read latency additionally accepts an absolute
//     mean-error floor: the SSD-family A/R/S fits are nearly deterministic
//     (sub-millisecond quantile spread even after scaling), so a
//     range-normalized bound degenerates there — which is why the paper's
//     own validation used exponential models.
//
// Because the suite measures a real system under a real scheduler, it
// calibrates the harness's per-operation overhead (a cluster with
// point-mass delays, where any latency beyond the known injected delay is
// overhead) and composes that overhead distribution with the WARS
// predictions before comparing. Calibration runs once per cluster shape
// (node count and N/R/W): a coordinator serves its own replica leg in
// process and the others over the wire, so the overhead of waiting for
// R or W of N legs depends on that mix.
package conformance
