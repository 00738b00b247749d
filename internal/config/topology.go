package config

import (
	"fmt"

	"uswg/internal/nfs"
)

// Placement strategies for the multi-server namespace router.
const (
	// PlaceShard hashes each directory to exactly one island; a file lives
	// on (and is charged to) its directory's owner. The default.
	PlaceShard = "shard"
	// PlaceReplicate additionally replicates the read-mostly system tree:
	// reads of /sys paths are served by the requesting user's home island
	// while writes still go to the hash-designated primary.
	PlaceReplicate = "replicate"
)

// Topology is the shape of the serving fleet: how many NFS servers exist,
// how clients are provisioned against them, and how the namespace maps onto
// the islands. Every island is provisioned identically from FSSpec.Server
// and FSSpec.Client, the only place each NFS knob is set.
type Topology struct {
	// Servers is the number of server islands (server + wire + mounted
	// clients). 0 or 1 keeps the thesis's single shared server.
	Servers int `json:"servers,omitempty"`
	// ClientPool switches on client multiplexing: K pooled clients per
	// island serve all users mapped there (user -> pool slot user mod K),
	// making construction and warming proportional to distinct files and
	// pool size instead of users x files. 0 keeps one client per user.
	ClientPool int `json:"client_pool,omitempty"`
	// Placement selects the router strategy: PlaceShard (default when
	// empty) or PlaceReplicate.
	Placement string `json:"placement,omitempty"`
}

// Validate checks the topology block (nil is valid: one island).
func (t *Topology) Validate() error {
	if t == nil {
		return nil
	}
	if t.Servers < 0 {
		return fmt.Errorf("%w: topology servers %d negative", ErrSpec, t.Servers)
	}
	if t.ClientPool < 0 {
		return fmt.Errorf("%w: topology client_pool %d negative", ErrSpec, t.ClientPool)
	}
	switch t.Placement {
	case "", PlaceShard, PlaceReplicate:
		return nil
	default:
		return fmt.Errorf("%w: topology placement %q (want %q or %q)", ErrSpec, t.Placement, PlaceShard, PlaceReplicate)
	}
}

// ResolveTopology returns the fleet the spec describes: the topology
// block's shape (one island with private clients when the block is nil),
// every island provisioned from Server and Client.
func (f FSSpec) ResolveTopology() nfs.FleetConfig {
	c := nfs.FleetConfig{Servers: 1, Server: f.Server, Client: f.Client}
	if t := f.Topology; t != nil {
		c.Servers = max(t.Servers, 1)
		c.Pool = t.ClientPool
		c.Replicate = t.Placement == PlaceReplicate
	}
	return c
}
