package config

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"uswg/internal/netsim"
)

func TestResolveTopologyLegacyIdentity(t *testing.T) {
	s := Default()
	r := s.FS.ResolveTopology()
	if r.Servers != 1 || r.Pool != 0 || r.Placement != PlaceShard {
		t.Errorf("legacy resolution = %+v", r)
	}
	if r.Server != s.FS.Server {
		t.Errorf("server config changed: %+v != %+v", r.Server, s.FS.Server)
	}
	if r.Client != s.FS.Client {
		t.Errorf("client config changed: %+v != %+v", r.Client, s.FS.Client)
	}
}

func TestResolveTopologyOverrides(t *testing.T) {
	s := Default()
	srv := s.FS.Server
	srv.NFSDs = 7
	net := netsim.Config{LatencyPerMessage: 123, PerByte: 4}
	s.FS.Topology = &Topology{
		Servers:    4,
		NFSDs:      9, // wins over Server.NFSDs
		ClientPool: 16,
		Placement:  PlaceReplicate,
		Server:     &srv,
		Net:        &net,
	}
	r := s.FS.ResolveTopology()
	if r.Servers != 4 || r.Pool != 16 || r.Placement != PlaceReplicate {
		t.Errorf("shape = %+v", r)
	}
	if r.Server.NFSDs != 9 {
		t.Errorf("nfsds override lost: %d", r.Server.NFSDs)
	}
	if r.Client.Net != net {
		t.Errorf("net override lost: %+v", r.Client.Net)
	}
	// The client block outside Net keeps the legacy values.
	if r.Client.WireBlock != s.FS.Client.WireBlock {
		t.Errorf("client wire block changed: %d", r.Client.WireBlock)
	}
}

func TestTopologyValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
	}{
		{"negative servers", Topology{Servers: -1}},
		{"negative nfsds", Topology{NFSDs: -2}},
		{"negative pool", Topology{ClientPool: -3}},
		{"bad placement", Topology{Placement: "scatter"}},
		{"bad server", Topology{Server: &Default().FS.Server, NFSDs: 0}},
	}
	// Make the "bad server" case actually bad.
	cases[4].topo.Server.NFSDs = 0
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
// spec using the topology block: config overrides are folded into the legacy
// value fields at decode time, so re-encoding cannot trip the both-forms
// rejection, and the resolved shape is unchanged.
func TestTopologySpecRoundTrip(t *testing.T) {
	s := Default()
	srv := s.FS.Server
	srv.NFSDs = 6
	net := netsim.Config{LatencyPerMessage: 77, PerByte: 2}
	s.FS.Topology = &Topology{
		Servers: 4, ClientPool: 16, Placement: PlaceReplicate,
		Server: &srv, Net: &net,
	}
	want := s.FS.ResolveTopology()

	var one bytes.Buffer
	if err := s.Encode(&one); err != nil {
		t.Fatal(err)
	}
	first := one.String()
	back, err := Decode(strings.NewReader(first))
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
	second := two.String()
	reback, err := Decode(strings.NewReader(second))
	if err != nil {
		t.Fatalf("re-decode of encoded spec: %v", err)
	}
	var three bytes.Buffer
	if err := reback.Encode(&three); err != nil {
		t.Fatal(err)
	}
	if second != three.String() {
		t.Error("Encode(Decode(x)) is not a fixed point")
	}
}

func TestFSSpecRejectsBothForms(t *testing.T) {
	const tmpl = `{
		"name": "x",
		"fs": {"kind": "nfs", %s}
	}`
	cases := []struct {
		name string
		fs   string
		ok   bool
	}{
		{"legacy server + topology.server",
			`"server": {"NFSDs": 4}, "topology": {"server": {"NFSDs": 2}}`, false},
		{"legacy client + topology.client",
			`"client": {"WireBlock": 8192}, "topology": {"client": {"WireBlock": 1024}}`, false},
		{"legacy client + topology.net",
			`"client": {"WireBlock": 8192}, "topology": {"net": {"LatencyPerMessage": 10}}`, false},
		{"legacy server + topology counts",
			`"server": {"NFSDs": 4}, "topology": {"servers": 2, "client_pool": 8}`, true},
		{"topology only",
			`"topology": {"servers": 2, "server": {"NFSDs": 4}}`, true},
		{"null topology with legacy",
			`"server": {"NFSDs": 4}, "topology": null`, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var fs FSSpec
			err := fs.UnmarshalJSON([]byte("{\"kind\": \"nfs\", " + c.fs + "}"))
			if c.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !c.ok {
				if err == nil {
					t.Fatal("expected both-forms rejection")
				}
				if !errors.Is(err, ErrSpec) {
					t.Errorf("error = %v, want ErrSpec", err)
				}
			}
			_ = tmpl
		})
	}
}

// TestTopologyFoldAtDecode checks that decoded topology config overrides land
// in the legacy fields (and the topology block keeps only the fleet shape).
func TestTopologyFoldAtDecode(t *testing.T) {
	var fs FSSpec
	raw := `{"kind": "nfs",
		"topology": {"servers": 2, "nfsds": 5, "client_pool": 8,
		             "net": {"LatencyPerMessage": 99}}}`
	if err := fs.UnmarshalJSON([]byte(raw)); err != nil {
		t.Fatal(err)
	}
	if fs.Server.NFSDs != 5 {
		t.Errorf("nfsds not folded: %d", fs.Server.NFSDs)
	}
	if fs.Client.Net.LatencyPerMessage != 99 {
		t.Errorf("net not folded: %+v", fs.Client.Net)
	}
	if fs.Topology == nil || fs.Topology.Servers != 2 || fs.Topology.ClientPool != 8 {
		t.Errorf("fleet shape lost: %+v", fs.Topology)
	}
	if fs.Topology.Server != nil || fs.Topology.Client != nil || fs.Topology.Net != nil || fs.Topology.NFSDs != 0 {
		t.Errorf("folded overrides still present: %+v", fs.Topology)
	}
}
