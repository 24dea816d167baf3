// Package driver provides a uniform way to construct each parameter-server
// variant evaluated in the paper, so workloads and the experiment harness can
// run unchanged against all of them.
package driver

import (
	"fmt"
	"time"

	"lapse/internal/adaptive"
	"lapse/internal/classic"
	"lapse/internal/cluster"
	"lapse/internal/core"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/ssp"
)

// Kind names a parameter-server variant from the paper's evaluation.
type Kind string

// The evaluated systems.
const (
	// ClassicPS is the PS-Lite baseline: static allocation, every access
	// through the server message path (IPC loopback for local keys).
	ClassicPS Kind = "classic"
	// ClassicFast is "Classic PS with fast local access (in Lapse)":
	// static allocation with shared-memory local access.
	ClassicFast Kind = "classic-fast"
	// Lapse is the paper's system: dynamic parameter allocation.
	Lapse Kind = "lapse"
	// LapseCached is Lapse with location caches enabled (ablation §4.6).
	LapseCached Kind = "lapse-cached"
	// SSPClient is the stale PS (Petuum) with client-based
	// synchronization (SSP consistency model).
	SSPClient Kind = "ssp-client"
	// SSPServer is the stale PS with server-based synchronization
	// (SSPPush consistency model).
	SSPServer Kind = "ssp-server"
)

// Kinds lists all variants.
func Kinds() []Kind {
	return []Kind{ClassicPS, ClassicFast, Lapse, LapseCached, SSPClient, SSPServer}
}

// PS is the system-level interface every variant satisfies.
type PS interface {
	// Handle returns the KV client for a worker thread.
	Handle(worker int) kv.KV
	// Init sets initial parameter values (before training).
	Init(fn func(k kv.Key, val []float32))
	// ReadParameter reads a parameter's authoritative value (quiescent
	// states only; used for evaluation).
	ReadParameter(k kv.Key, dst []float32)
	// Stats returns per-node server statistics.
	Stats() []*metrics.ServerStats
	// Latencies returns the merged end-to-end operation-latency snapshot
	// (pull/push fast and slow paths, localize) over every worker handle of
	// this process's nodes.
	Latencies() metrics.LatencySnapshot
	// Layout returns the parameter layout.
	Layout() kv.Layout
	// Shutdown waits for server goroutines after the cluster closed.
	Shutdown()
}

// Options carries variant-specific knobs.
type Options struct {
	// Staleness is the SSP staleness bound (stale variants only).
	Staleness int
	// Unbatched disables per-destination message batching in the shared
	// server runtime (measurement only; all variants).
	Unbatched bool
	// Replicate designates hot keys managed by eventually-consistent
	// replication instead of relocation (Lapse variants only; ignored
	// elsewhere).
	Replicate []kv.Key
	// ReplicaSyncEvery is the replica sync interval (0 = default).
	ReplicaSyncEvery time.Duration
	// Adaptive enables the online per-key management controller (Lapse
	// variants only; see internal/adaptive). Replicate then seeds the
	// initial replicated set.
	Adaptive *adaptive.Config
	// Serving enables the read-path serving tier — lease-based client
	// caching with MultiGet (Lapse variants only; see core.ServingConfig).
	Serving *core.ServingConfig
}

// Build constructs the variant on cl.
func Build(kind Kind, cl *cluster.Cluster, layout kv.Layout, opt Options) PS {
	switch kind {
	case ClassicPS:
		return classic.New(cl, layout, classic.Config{Unbatched: opt.Unbatched})
	case ClassicFast:
		return classic.New(cl, layout, classic.Config{FastLocalAccess: true, Unbatched: opt.Unbatched})
	case Lapse:
		return core.New(cl, layout, core.Config{Unbatched: opt.Unbatched,
			Replicate: opt.Replicate, ReplicaSyncEvery: opt.ReplicaSyncEvery, Adaptive: opt.Adaptive,
			Serving: opt.Serving})
	case LapseCached:
		return core.New(cl, layout, core.Config{LocationCaches: true, Unbatched: opt.Unbatched,
			Replicate: opt.Replicate, ReplicaSyncEvery: opt.ReplicaSyncEvery, Adaptive: opt.Adaptive,
			Serving: opt.Serving})
	case SSPClient:
		return ssp.New(cl, layout, ssp.Config{Staleness: opt.Staleness, Unbatched: opt.Unbatched})
	case SSPServer:
		return ssp.New(cl, layout, ssp.Config{Staleness: opt.Staleness, ServerSync: true, Unbatched: opt.Unbatched})
	default:
		panic(fmt.Sprintf("driver: unknown PS kind %q", kind))
	}
}

// SupportsLocalize reports whether the variant implements the localize
// primitive (only Lapse variants do).
func SupportsLocalize(kind Kind) bool {
	return kind == Lapse || kind == LapseCached
}

var (
	_ PS = (*classic.System)(nil)
	_ PS = (*core.System)(nil)
	_ PS = (*ssp.System)(nil)
)
