// Package cluster simulates the cloud/edge infrastructure the paper's §4.1
// offloading argument assumes (CloudRiDAR [13]): heterogeneous compute nodes
// (mobile, edge, cloud), parameterised network links (LAN/WiFi/LTE/3G), a
// message-passing RPC layer over a discrete-event scheduler, and failure
// injection. Latency and energy are modelled deterministically from seeded
// randomness so experiments are reproducible.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"arbd/internal/sim"
)

// Cluster errors.
var (
	ErrNoNode      = errors.New("cluster: node does not exist")
	ErrNodeExists  = errors.New("cluster: node already exists")
	ErrPartitioned = errors.New("cluster: link partitioned")
	ErrNoLink      = errors.New("cluster: no link between nodes")
)

// Profile describes a network link class.
type Profile struct {
	Name          string
	RTT           time.Duration // round-trip propagation latency
	BandwidthMbps float64       // payload throughput
	JitterFrac    float64       // multiplicative jitter on each transfer
}

// Standard link profiles, parameterised from published mobile-network
// measurements (order-of-magnitude, which is all the offload crossover
// shapes need).
var (
	ProfileLoopback = Profile{Name: "loopback", RTT: 50 * time.Microsecond, BandwidthMbps: 10000, JitterFrac: 0.05}
	ProfileLAN      = Profile{Name: "lan", RTT: 500 * time.Microsecond, BandwidthMbps: 1000, JitterFrac: 0.1}
	ProfileWiFi     = Profile{Name: "wifi", RTT: 5 * time.Millisecond, BandwidthMbps: 100, JitterFrac: 0.2}
	ProfileLTE      = Profile{Name: "lte", RTT: 35 * time.Millisecond, BandwidthMbps: 20, JitterFrac: 0.3}
	Profile3G       = Profile{Name: "3g", RTT: 120 * time.Millisecond, BandwidthMbps: 2, JitterFrac: 0.4}
)

// OneWay returns the time to move payloadBytes across the link once:
// half an RTT of propagation plus serialisation at the link bandwidth,
// jittered. A nil rng yields the deterministic mean.
func (p Profile) OneWay(payloadBytes int, rng *sim.Rand) time.Duration {
	ser := time.Duration(float64(payloadBytes*8) / (p.BandwidthMbps * 1e6) * float64(time.Second))
	base := p.RTT/2 + ser
	if rng == nil || p.JitterFrac <= 0 {
		return base
	}
	return time.Duration(rng.Jitter(float64(base), p.JitterFrac))
}

// Class tiers a node's compute capability. Enums start at 1.
type Class int

// Node classes.
const (
	ClassMobile Class = iota + 1
	ClassEdge
	ClassCloud
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassMobile:
		return "mobile"
	case ClassEdge:
		return "edge"
	case ClassCloud:
		return "cloud"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// baseOpsPerSecond is the throughput of a SpeedFactor-1.0 node. The absolute
// value is arbitrary; ratios between node classes drive every result.
const baseOpsPerSecond = 2e9

// Node is one compute element.
type Node struct {
	ID    string
	Class Class
	// SpeedFactor scales compute throughput relative to the mobile
	// baseline (mobile ≈ 1, edge ≈ 4-8, cloud ≈ 16-64).
	SpeedFactor float64
	// ActiveWatts and IdleWatts drive the device energy model used by the
	// offloading experiments (battery life is one of the paper's §4
	// practical barriers).
	ActiveWatts float64
	IdleWatts   float64
	// TxWatts is radio transmit power draw during network transfers.
	TxWatts float64
}

// ExecTime returns how long ops operations take on this node.
func (n Node) ExecTime(ops float64) time.Duration {
	if n.SpeedFactor <= 0 {
		return time.Duration(math31)
	}
	return time.Duration(ops / (n.SpeedFactor * baseOpsPerSecond) * float64(time.Second))
}

const math31 = 1<<62 - 1 // effectively infinite duration for a dead node

// ComputeEnergyJoules returns device energy burned computing for d at active
// power.
func (n Node) ComputeEnergyJoules(d time.Duration) float64 {
	return n.ActiveWatts * d.Seconds()
}

// RadioEnergyJoules returns device energy burned transmitting/receiving for
// d.
func (n Node) RadioEnergyJoules(d time.Duration) float64 {
	return n.TxWatts * d.Seconds()
}

// IdleEnergyJoules returns device energy burned waiting for d.
func (n Node) IdleEnergyJoules(d time.Duration) float64 {
	return n.IdleWatts * d.Seconds()
}

// Message is a delivered RPC payload.
type Message struct {
	From    string
	To      string
	Payload []byte
	SentAt  time.Time
	Arrived time.Time
}

// Cluster is a set of nodes plus links, driven by a discrete-event
// scheduler. Not safe for concurrent use: discrete-event simulations run
// single-threaded by design.
type Cluster struct {
	sched *sim.Scheduler
	rng   *sim.Rand

	mu         sync.Mutex
	nodes      map[string]*Node
	links      map[string]Profile // key: a+"|"+b with a<b
	partitions map[string]bool
	handlers   map[string]func(Message)
	delivered  int64
	dropped    int64
}

// New returns a cluster driven by the given scheduler and seed.
func New(sched *sim.Scheduler, seed int64) *Cluster {
	return &Cluster{
		sched:      sched,
		rng:        sim.NewRand(seed).Child("cluster"),
		nodes:      make(map[string]*Node),
		links:      make(map[string]Profile),
		partitions: make(map[string]bool),
		handlers:   make(map[string]func(Message)),
	}
}

// AddNode registers a node.
func (c *Cluster) AddNode(n Node) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[n.ID]; ok {
		return fmt.Errorf("%w: %q", ErrNodeExists, n.ID)
	}
	cp := n
	c.nodes[n.ID] = &cp
	return nil
}

// Node returns the node with the given ID.
func (c *Cluster) Node(id string) (Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	if !ok {
		return Node{}, fmt.Errorf("%w: %q", ErrNoNode, id)
	}
	return *n, nil
}

func linkKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Connect installs a bidirectional link between two nodes.
func (c *Cluster) Connect(a, b string, p Profile) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[a]; !ok {
		return fmt.Errorf("%w: %q", ErrNoNode, a)
	}
	if _, ok := c.nodes[b]; !ok {
		return fmt.Errorf("%w: %q", ErrNoNode, b)
	}
	c.links[linkKey(a, b)] = p
	return nil
}

// Link returns the profile of the a-b link.
func (c *Cluster) Link(a, b string) (Profile, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.links[linkKey(a, b)]
	if !ok {
		return Profile{}, fmt.Errorf("%w: %s-%s", ErrNoLink, a, b)
	}
	return p, nil
}

// Partition severs the a-b link until Heal.
func (c *Cluster) Partition(a, b string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.partitions[linkKey(a, b)] = true
}

// Heal restores the a-b link.
func (c *Cluster) Heal(a, b string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.partitions, linkKey(a, b))
}

// Handle registers the message handler for a node. Handlers run inside
// scheduler events.
func (c *Cluster) Handle(nodeID string, fn func(Message)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handlers[nodeID] = fn
}

// Send schedules delivery of payload from one node to another across their
// link. Delivery invokes the destination handler after the simulated
// transfer time. Send fails fast on unknown nodes, missing links, or
// partitions.
func (c *Cluster) Send(from, to string, payload []byte) error {
	c.mu.Lock()
	if _, ok := c.nodes[from]; !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoNode, from)
	}
	if _, ok := c.nodes[to]; !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoNode, to)
	}
	key := linkKey(from, to)
	link, ok := c.links[key]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s-%s", ErrNoLink, from, to)
	}
	if c.partitions[key] {
		c.dropped++
		c.mu.Unlock()
		return fmt.Errorf("%w: %s-%s", ErrPartitioned, from, to)
	}
	delay := link.OneWay(len(payload), c.rng)
	sentAt := c.sched.Clock().Now()
	body := append([]byte(nil), payload...)
	c.mu.Unlock()

	c.sched.After(delay, func(now time.Time) {
		c.mu.Lock()
		h := c.handlers[to]
		c.delivered++
		c.mu.Unlock()
		if h != nil {
			h(Message{From: from, To: to, Payload: body, SentAt: sentAt, Arrived: now})
		}
	})
	return nil
}

// Stats returns delivered and dropped message counts.
func (c *Cluster) Stats() (delivered, dropped int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.delivered, c.dropped
}

// StandardDeployment builds the canonical three-tier deployment used by the
// offloading experiments: one mobile device, one edge server one hop away,
// one cloud datacentre, with the device-to-infrastructure link given by
// accessLink (WiFi/LTE/3G) and edge-to-cloud on a fast backbone.
func StandardDeployment(sched *sim.Scheduler, seed int64, accessLink Profile) (*Cluster, error) {
	c := New(sched, seed)
	nodes := []Node{
		{ID: "mobile", Class: ClassMobile, SpeedFactor: 1, ActiveWatts: 2.5, IdleWatts: 0.8, TxWatts: 1.8},
		{ID: "edge", Class: ClassEdge, SpeedFactor: 6, ActiveWatts: 65, IdleWatts: 20, TxWatts: 5},
		{ID: "cloud", Class: ClassCloud, SpeedFactor: 32, ActiveWatts: 250, IdleWatts: 80, TxWatts: 10},
	}
	for _, n := range nodes {
		if err := c.AddNode(n); err != nil {
			return nil, err
		}
	}
	if err := c.Connect("mobile", "edge", accessLink); err != nil {
		return nil, err
	}
	// The cloud path rides the same access link plus a backbone hop, which
	// we approximate by adding backbone RTT to the access profile.
	cloudLink := accessLink
	cloudLink.Name = accessLink.Name + "+wan"
	cloudLink.RTT += 40 * time.Millisecond
	if err := c.Connect("mobile", "cloud", cloudLink); err != nil {
		return nil, err
	}
	if err := c.Connect("edge", "cloud", Profile{Name: "backbone", RTT: 40 * time.Millisecond, BandwidthMbps: 10000, JitterFrac: 0.05}); err != nil {
		return nil, err
	}
	return c, nil
}
