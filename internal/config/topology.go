package config

import (
	"bytes"
	"encoding/json"
	"fmt"

	"uswg/internal/netsim"
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

// Topology is the unified description of the serving fleet: how many NFS
// servers exist, how clients are provisioned against them, and how the
// namespace maps onto the islands. It consolidates what used to be spread
// across Spec.FS.Server, Spec.FS.Client (including its embedded Net wire
// model) and the scenario-level NFSDs/FS overrides. The legacy fields keep
// parsing as aliases; setting the same knob through both forms is rejected
// at decode time.
type Topology struct {
	// Servers is the number of server islands (server + wire + mounted
	// clients). 0 or 1 keeps the thesis's single shared server.
	Servers int `json:"servers,omitempty"`
	// NFSDs overrides the per-server daemon count (0 keeps Server.NFSDs).
	NFSDs int `json:"nfsds,omitempty"`
	// ClientPool switches on client multiplexing: K pooled clients per
	// island serve all users mapped there (user -> pool slot user mod K),
	// making construction and warming proportional to distinct files and
	// pool size instead of users x files. 0 keeps one client per user.
	ClientPool int `json:"client_pool,omitempty"`
	// Placement selects the router strategy: PlaceShard (default when
	// empty) or PlaceReplicate.
	Placement string `json:"placement,omitempty"`
	// Server, Client, and Net override the legacy FSSpec fields when set;
	// every island is provisioned identically from the resolved values.
	// Net overrides Client.Net alone, so the wire model can be tuned
	// without restating the whole client block.
	Server *nfs.ServerConfig `json:"server,omitempty"`
	Client *nfs.ClientConfig `json:"client,omitempty"`
	Net    *netsim.Config    `json:"net,omitempty"`
}

// Validate checks the topology block (nil is valid: legacy single island).
func (t *Topology) Validate() error {
	if t == nil {
		return nil
	}
	if t.Servers < 0 {
		return fmt.Errorf("%w: topology servers %d negative", ErrSpec, t.Servers)
	}
	if t.NFSDs < 0 {
		return fmt.Errorf("%w: topology nfsds %d negative", ErrSpec, t.NFSDs)
	}
	if t.ClientPool < 0 {
		return fmt.Errorf("%w: topology client_pool %d negative", ErrSpec, t.ClientPool)
	}
	switch t.Placement {
	case "", PlaceShard, PlaceReplicate:
	default:
		return fmt.Errorf("%w: topology placement %q (want %q or %q)", ErrSpec, t.Placement, PlaceShard, PlaceReplicate)
	}
	if t.Server != nil {
		if err := t.Server.Validate(); err != nil {
			return err
		}
	}
	if t.Client != nil {
		if err := t.Client.Validate(); err != nil {
			return err
		}
	}
	if t.Net != nil {
		if err := t.Net.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ResolvedTopology is the effective fleet shape after the Topology block's
// overrides are applied on top of the legacy FSSpec fields. It is what the
// generator consumes; resolution is a pure function of the FSSpec.
type ResolvedTopology struct {
	// Servers is the island count, at least 1.
	Servers int
	// Pool is the pooled-client count per island (0: one client per user).
	Pool int
	// Placement is PlaceShard or PlaceReplicate.
	Placement string
	// Server and Client are the effective per-island configurations.
	Server nfs.ServerConfig
	Client nfs.ClientConfig
}

// ResolveTopology applies the Topology block (if any) over the legacy
// Server/Client fields and returns the effective fleet shape.
func (f FSSpec) ResolveTopology() ResolvedTopology {
	r := ResolvedTopology{
		Servers:   1,
		Placement: PlaceShard,
		Server:    f.Server,
		Client:    f.Client,
	}
	t := f.Topology
	if t == nil {
		return r
	}
	if t.Server != nil {
		r.Server = *t.Server
	}
	if t.Client != nil {
		r.Client = *t.Client
	}
	if t.Net != nil {
		r.Client.Net = *t.Net
	}
	if t.NFSDs > 0 {
		r.Server.NFSDs = t.NFSDs
	}
	if t.Servers > 1 {
		r.Servers = t.Servers
	}
	if t.ClientPool > 0 {
		r.Pool = t.ClientPool
	}
	if t.Placement != "" {
		r.Placement = t.Placement
	}
	return r
}

// fsSpecAlias strips FSSpec's methods so the strict decode below does not
// recurse into UnmarshalJSON (nor MarshalJSON into itself).
type fsSpecAlias FSSpec

// foldTopology moves the topology block's config overrides into the legacy
// value fields (which resolution reads last-wins the same way) and keeps only
// the fleet shape in the block, dropping it entirely if nothing remains. Both
// the marshaler and the unmarshaler apply it, so an encoded document carries
// each knob in exactly one form and Encode(Decode(x)) is a fixed point.
func (a *fsSpecAlias) foldTopology() {
	t := a.Topology
	if t == nil {
		return
	}
	tt := *t
	if tt.Server != nil {
		a.Server = *tt.Server
		tt.Server = nil
	}
	if tt.Client != nil {
		a.Client = *tt.Client
		tt.Client = nil
	}
	if tt.Net != nil {
		a.Client.Net = *tt.Net
		tt.Net = nil
	}
	if tt.NFSDs > 0 {
		a.Server.NFSDs = tt.NFSDs
		tt.NFSDs = 0
	}
	if tt == (Topology{}) {
		a.Topology = nil
	} else {
		a.Topology = &tt
	}
}

// MarshalJSON folds topology config overrides into the legacy keys before
// encoding; the struct-typed legacy fields are always emitted, so leaving the
// overrides inside the block would produce a document that sets the same knob
// both ways and fails its own re-decode.
func (f FSSpec) MarshalJSON() ([]byte, error) {
	a := fsSpecAlias(f)
	a.foldTopology()
	return json.Marshal(a)
}

// UnmarshalJSON parses an FSSpec while enforcing the one-form-per-knob rule:
// the legacy "server"/"client" keys still parse (they are the aliases), but
// a document that sets the same configuration through both the legacy key
// and the topology block is ambiguous and rejected. Unknown fields are
// rejected here because a custom unmarshaler bypasses the outer decoder's
// DisallowUnknownFields.
func (f *FSSpec) UnmarshalJSON(data []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if topo, ok := raw["topology"]; ok && !bytes.Equal(bytes.TrimSpace(topo), []byte("null")) {
		var traw map[string]json.RawMessage
		if err := json.Unmarshal(topo, &traw); err != nil {
			return fmt.Errorf("%w: topology: %v", ErrSpec, err)
		}
		if _, legacy := raw["server"]; legacy {
			if _, both := traw["server"]; both {
				return fmt.Errorf("%w: fs sets both the legacy \"server\" key and topology.server — use one form", ErrSpec)
			}
		}
		if _, legacy := raw["client"]; legacy {
			if _, both := traw["client"]; both {
				return fmt.Errorf("%w: fs sets both the legacy \"client\" key and topology.client — use one form", ErrSpec)
			}
			if _, both := traw["net"]; both {
				return fmt.Errorf("%w: fs sets both the legacy \"client\" key (which embeds Net) and topology.net — use one form", ErrSpec)
			}
		}
	}
	var a fsSpecAlias
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return err
	}
	a.foldTopology()
	*f = FSSpec(a)
	return nil
}
