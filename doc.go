// Package vgprs is a from-scratch Go reproduction of "vGPRS: A Mechanism
// for Voice over GPRS" (Chang, Lin, Pang — ICDCS 2001 / Wireless Networks
// 9, 2003).
//
// The paper replaces the GSM MSC with a VMSC — a router-based softswitch
// that keeps the circuit-switched radio leg for unmodified handsets, acts
// as a GPRS mobile on behalf of every subscriber, and speaks standard
// H.323 toward a gatekeeper. This module implements the VMSC and every
// substrate it depends on (GSM radio access and core, SS7/MAP, GPRS
// SGSN/GGSN/GTP, H.323/Q.931/RTP, a PSTN, and the 3G TR 23.923 comparison
// baseline) on a deterministic discrete-event simulator.
//
// Start with internal/netsim to build complete networks, internal/vmsc for
// the paper's contribution, and internal/experiments for the harness that
// regenerates every figure and comparison. The runnable entry points are
// cmd/vgprs-sim (message traces) and cmd/vgprs-bench (measured tables, and
// the BENCH_<id>.json files at the repository root that record them).
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
package vgprs
