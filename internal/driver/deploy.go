package driver

import (
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"strings"

	"lapse/internal/cluster"
	"lapse/internal/metrics"
	"lapse/internal/simnet"
	"lapse/internal/transport"
	"lapse/internal/transport/shm"
	"lapse/internal/transport/tcp"
)

// Deployment describes where a cluster runs: on the in-process simulated
// network (the default, reproducing the paper's testbed timing model) or on
// a real transport, optionally spread over multiple OS processes (one per
// node, each running cmd/lapse-node or an equivalent embedding). On a real
// transport, traffic between co-located nodes automatically rides
// shared-memory rings (internal/transport/shm) instead of loopback TCP
// unless DisableSHM is set; cross-host traffic always uses TCP.
type Deployment struct {
	// Nodes is the cluster-wide node count.
	Nodes int
	// WorkersPerNode is the number of worker threads per node.
	WorkersPerNode int
	// Shards is the per-node server shard count (0 = 1): each node runs
	// one server message loop per shard over the interleaved static key
	// slice k ≡ s (mod Shards). Every process of a deployment must use the
	// same value, like Nodes.
	Shards int
	// Net configures the simulated network; ignored when TCP is set. Its
	// Shards field is overwritten with Deployment.Shards.
	Net simnet.Config
	// TCP, when non-nil, runs the cluster over real transports (TCP, plus
	// shared-memory rings between co-located nodes).
	TCP *TCPDeployment
}

// TCPDeployment selects the real-transport deployment.
type TCPDeployment struct {
	// Addrs is every node's listen address, indexed by node.
	Addrs []string
	// Node is the single node hosted by this process; -1 hosts all nodes
	// in-process (loopback sockets, used by tests and single-machine
	// runs).
	Node int
	// MaxMessage overrides the transport's per-message size bound
	// (0 = default). Raise it for layouts where one batched envelope can
	// exceed the default; shared-memory rings are sized to admit it.
	MaxMessage int
	// DisableSHM forces all traffic onto TCP sockets, even between
	// co-located nodes.
	DisableSHM bool
	// SHMDir overrides the directory holding the shared-memory ring files.
	// All co-located processes of a deployment must agree on it; the
	// default derives a per-deployment directory from Addrs under /dev/shm
	// (or the system temp directory).
	SHMDir string
}

// NewCluster builds and starts a cluster for d. The caller owns the cluster
// and must Close it; with TCP the underlying transport is closed through the
// cluster.
func NewCluster(d Deployment) (*cluster.Cluster, error) {
	if d.TCP == nil {
		net := d.Net
		net.Shards = d.Shards
		return cluster.New(cluster.Config{
			Nodes:          d.Nodes,
			WorkersPerNode: d.WorkersPerNode,
			Net:            net,
		}), nil
	}
	if len(d.TCP.Addrs) != d.Nodes {
		return nil, fmt.Errorf("driver: %d TCP addresses for %d nodes", len(d.TCP.Addrs), d.Nodes)
	}
	var local []int
	if d.TCP.Node >= 0 {
		if d.TCP.Node >= d.Nodes {
			return nil, fmt.Errorf("driver: node %d out of range [0,%d)", d.TCP.Node, d.Nodes)
		}
		local = []int{d.TCP.Node}
	}
	tcpNet, err := tcp.New(tcp.Config{Addrs: d.TCP.Addrs, Local: local, Shards: d.Shards,
		MaxMessage: d.TCP.MaxMessage})
	if err != nil {
		return nil, err
	}
	var tr transport.Network = tcpNet
	var shmNet *shm.Network
	if !d.TCP.DisableSHM {
		if s := shmFor(d, local, tcpNet); s != nil {
			tr = s
			shmNet, _ = s.(*shm.Network)
		}
	}
	cl := cluster.New(cluster.Config{
		Nodes:          d.Nodes,
		WorkersPerNode: d.WorkersPerNode,
		Transport:      tr,
	})
	// Ledger the transport topology decisions: any link that could not ride a
	// shared-memory ring (cross-host peer, or rings unavailable entirely)
	// shows up in the control-plane trace.
	if !d.TCP.DisableSHM {
		if shmNet == nil {
			cl.Trace().Record(d.TCP.Node, 0, metrics.TraceTransportFallback, 0, d.TCP.Node, -1,
				"shm rings unavailable: all traffic on tcp")
		} else {
			for dst := 0; dst < d.Nodes; dst++ {
				if !shmNet.RingTo(dst) {
					cl.Trace().Record(d.TCP.Node, 0, metrics.TraceTransportFallback, 0, d.TCP.Node, dst,
						"cross-host link on tcp")
				}
			}
		}
	}
	return cl, nil
}

// Transport names the transport a cluster's network stack selected, for
// logging and tests.
func Transport(cl *cluster.Cluster) string {
	switch cl.Net().(type) {
	case *shm.Network:
		return "shm"
	case *tcp.Network:
		return "tcp"
	default:
		return "simnet"
	}
}

// shmFor layers the shared-memory ring transport over tcpNet for the
// co-located subset of the cluster, or returns nil — leaving the deployment
// on plain TCP — when no peer shares this host or the rings cannot be
// established. The fallback is transparent: the shm network owns tcpNet and
// routes non-ring traffic through it.
func shmFor(d Deployment, local []int, tcpNet *tcp.Network) transport.Network {
	if !shm.Supported() {
		return nil
	}
	t := d.TCP
	useRing := make([]bool, d.Nodes)
	if t.Node < 0 {
		// Whole cluster in-process: every link is ring-reachable.
		for i := range useRing {
			useRing[i] = true
		}
	} else {
		self := hostOf(t.Addrs[t.Node])
		any := false
		for i, a := range t.Addrs {
			useRing[i] = i == t.Node || sameHost(self, hostOf(a))
			any = any || (useRing[i] && i != t.Node)
		}
		if !any {
			return nil // no co-located peer: plain TCP does everything
		}
	}
	dir := t.SHMDir
	if dir == "" {
		if t.Node < 0 {
			// Single process: no cross-process rendezvous needed, so a
			// unique directory avoids collisions between concurrent runs
			// (the addresses may all be ":0").
			var err error
			dir, err = os.MkdirTemp(shmBaseDir(), "lapse-shm-")
			if err != nil {
				return nil
			}
		} else {
			// Co-located processes derive the same directory from the
			// deployment's address list.
			dir = filepath.Join(shmBaseDir(), "lapse-shm-"+addrsHash(t.Addrs))
		}
	}
	s, err := shm.New(shm.Config{
		Dir:        dir,
		Nodes:      d.Nodes,
		Local:      local,
		Shards:     d.Shards,
		MaxMessage: t.MaxMessage,
		UseRing:    useRing,
		Fallback:   tcpNet,
	})
	if err != nil {
		return nil
	}
	return s
}

// shmBaseDir prefers the tmpfs at /dev/shm so ring pages never touch disk.
func shmBaseDir() string {
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		return "/dev/shm"
	}
	return os.TempDir()
}

func addrsHash(addrs []string) string {
	h := fnv.New64a()
	h.Write([]byte(strings.Join(addrs, ",")))
	return fmt.Sprintf("%016x", h.Sum64())
}

func hostOf(addr string) string {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	return host
}

// sameHost reports whether two listen-address hosts refer to this machine's
// loopback or are literally equal. Empty hosts and "localhost" count as
// loopback; non-loopback equality covers co-located processes addressed via
// a shared external IP or hostname.
func sameHost(a, b string) bool {
	if isLoopback(a) && isLoopback(b) {
		return true
	}
	return a != "" && a == b
}

func isLoopback(host string) bool {
	if host == "" || host == "localhost" {
		return true
	}
	if ip := net.ParseIP(host); ip != nil {
		return ip.IsLoopback()
	}
	return false
}
