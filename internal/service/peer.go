package service

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/ring"
)

// PeerFetcher is a shard's lazy-rebalancing arm. When a batch names a graph
// hash this shard does not hold, the hash may live on the shard that owned it
// before a membership change — by the ring's minimal-disruption property,
// that previous owner is exactly the next replica in ring order. The fetcher
// walks the key's replica list (skipping this shard itself), asks each peer
// for the graph in the native text format (which round-trips every hashed
// bit), and hands back the first graph whose re-computed content hash
// matches the request. Rebalancing after adding a shard is therefore
// transparent: keys migrate on first use, pulled rather than pushed, with no
// coordinator.
type PeerFetcher struct {
	ring   *ring.Ring
	addrs  map[string]string // member name -> host:port
	self   string
	token  string // bearer token presented to peers, when the fleet runs with -tokens
	client *http.Client

	mu    sync.Mutex
	stats PeerStats
}

// PeerStats counts peer-fetch traffic for /v1/stats.
type PeerStats struct {
	Fetches uint64 `json:"fetches"` // graphs successfully pulled from a peer
	Misses  uint64 `json:"misses"`  // fetch attempts where no peer held the graph
	Errors  uint64 `json:"errors"`  // per-peer failures (transport, decode, hash mismatch)
}

// NewPeerFetcher builds a fetcher for the fleet described by members. self
// names this shard (it is skipped as a fetch source and must be a member);
// token, when non-empty, is sent as a bearer credential to peers.
func NewPeerFetcher(members []ring.Member, self, token string) (*PeerFetcher, error) {
	r, err := ring.New(ring.Names(members), 0)
	if err != nil {
		return nil, err
	}
	if !r.Has(self) {
		return nil, fmt.Errorf("service: peer fetcher: self %q is not in the fleet member list", self)
	}
	addrs := make(map[string]string, len(members))
	for _, m := range members {
		addrs[m.Name] = m.Addr
	}
	return &PeerFetcher{
		ring:  r,
		addrs: addrs,
		self:  self,
		token: token,
		client: &http.Client{
			// A peer transfer moves up to a full stored graph; generous but
			// bounded so a hung peer cannot pin the batch handler forever.
			Timeout: 2 * time.Minute,
		},
	}, nil
}

// Stats returns the current counters.
func (p *PeerFetcher) Stats() PeerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

func (p *PeerFetcher) bump(f func(*PeerStats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
}

// Fetch pulls the graph addressed by hash from the first peer in the key's
// replica order that holds it, verifying the content hash before returning.
// It fails only after every candidate peer has been tried.
func (p *PeerFetcher) Fetch(hash string) (*graph.Graph, error) {
	var lastErr error
	tried := 0
	for _, name := range p.ring.Replicas(hash, p.ring.Size()) {
		if name == p.self {
			continue
		}
		tried++
		g, err := p.fetchFrom(name, hash)
		if err != nil {
			lastErr = err
			p.bump(func(s *PeerStats) { s.Errors++ })
			continue
		}
		p.bump(func(s *PeerStats) { s.Fetches++ })
		return g, nil
	}
	p.bump(func(s *PeerStats) { s.Misses++ })
	if lastErr != nil {
		return nil, fmt.Errorf("service: graph %s not held by any of %d peers (last: %w)", hash, tried, lastErr)
	}
	return nil, fmt.Errorf("service: graph %s: no peers to fetch from", hash)
}

func (p *PeerFetcher) fetchFrom(name, hash string) (*graph.Graph, error) {
	req, err := http.NewRequest(http.MethodGet,
		"http://"+p.addrs[name]+"/v1/graphs/"+hash+"?export=text", nil)
	if err != nil {
		return nil, err
	}
	if p.token != "" {
		req.Header.Set("Authorization", "Bearer "+p.token)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("peer %s: %w", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s: status %d for graph %s", name, resp.StatusCode, hash)
	}
	g, err := gio.ReadText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("peer %s: %w", name, err)
	}
	// The peer is trusted but not infallible: re-hash what it sent and refuse
	// anything that is not the graph the job asked for.
	if got := GraphHash(g); got != hash {
		return nil, fmt.Errorf("peer %s sent graph %s, want %s", name, got, hash)
	}
	return g, nil
}
