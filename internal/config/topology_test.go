package config

import (
	"bytes"
	"strings"
	"testing"

	"uswg/internal/netsim"
	"uswg/internal/nfs"
)

func TestResolveTopologyLegacyIdentity(t *testing.T) {
	s := Default()
	want := nfs.FleetConfig{Servers: 1, Server: s.FS.Server, Client: s.FS.Client}
	if got := s.FS.ResolveTopology(); got != want {
		t.Errorf("no topology block resolves to\n%+v\nwant the one-island fleet\n%+v", got, want)
	}
}

func TestResolveTopologyOverrides(t *testing.T) {
	s := Default()
	s.FS.Server.NFSDs = 9
	s.FS.Client.Net = netsim.Config{LatencyPerMessage: 123, PerByte: 4}
	s.FS.Topology = &Topology{Servers: 4, ClientPool: 16, Placement: PlaceReplicate}
	want := nfs.FleetConfig{Servers: 4, Pool: 16, Replicate: true, Server: s.FS.Server, Client: s.FS.Client}
	if got := s.FS.ResolveTopology(); got != want {
		t.Errorf("resolved fleet\n%+v\nwant\n%+v", got, want)
	}
	// An empty block is the one-island fleet; the shard placement is not a
	// replicating one.
	s.FS.Topology = &Topology{Placement: PlaceShard}
	if got := s.FS.ResolveTopology(); got.Servers != 1 || got.Pool != 0 || got.Replicate {
		t.Errorf("shape-only defaults resolved to %+v", got)
	}
}

func TestTopologyValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
	}{
		{"negative servers", Topology{Servers: -1}},
		{"negative pool", Topology{ClientPool: -3}},
		{"bad placement", Topology{Placement: "scatter"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.topo.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
	var nilTopo *Topology
	if err := nilTopo.Validate(); err != nil {
		t.Errorf("nil topology: %v", err)
	}
}

func TestSpecValidateTopologyByKind(t *testing.T) {
	s := Default()
	s.FS.Topology = &Topology{Servers: 2, ClientPool: 8}
	if err := s.Validate(); err != nil {
		t.Errorf("nfs topology: %v", err)
	}
	s.FS = FSSpec{Kind: FSLocal, Topology: &Topology{Servers: 2}}
	if err := s.Validate(); err == nil {
		t.Error("local fs with topology should be rejected")
	}
}

// TestTopologySpecRoundTrip proves Encode(Decode(x)) is a fixed point for a
// spec with a topology block and tuned server and client knobs, and that the
// resolved fleet survives the round trip.
func TestTopologySpecRoundTrip(t *testing.T) {
	s := Default()
	s.FS.Server.NFSDs = 6
	s.FS.Client.Net = netsim.Config{LatencyPerMessage: 77, PerByte: 2}
	s.FS.Topology = &Topology{Servers: 4, ClientPool: 16, Placement: PlaceReplicate}
	want := s.FS.ResolveTopology()

	var one bytes.Buffer
	if err := s.Encode(&one); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(strings.NewReader(one.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.FS.ResolveTopology(); got != want {
		t.Errorf("resolution changed across decode:\n got %+v\nwant %+v", got, want)
	}
	var two bytes.Buffer
	if err := back.Encode(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Error("Encode(Decode(x)) is not a fixed point")
	}
}
