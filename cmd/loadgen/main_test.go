package main

import (
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"oselmrl/internal/obs"
	"oselmrl/internal/persist"
	"oselmrl/internal/qnet"
	"oselmrl/internal/serve"
)

// startTwoTenantServer runs an in-process serve.Service with tenants
// alpha (4-dim model) and beta (6-dim model) behind httptest.
func startTwoTenantServer(t *testing.T) *httptest.Server {
	t.Helper()
	dir := t.TempDir()
	paths := map[string]string{}
	for name, dim := range map[string]int{"alpha": 4, "beta": 6} {
		cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, dim, 2, 8)
		cfg.Seed = uint64(dim)
		agent := qnet.MustNew(cfg)
		path := filepath.Join(dir, name+".json")
		if err := persist.SaveAgentFile(path, agent); err != nil {
			t.Fatal(err)
		}
		paths[name] = path
	}
	svc, err := serve.New(serve.Config{Policies: paths, Obs: obs.NewEmitter(nil)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// -tenants must probe each tenant's own /v1/info (the models differ in
// input size) and build per-tenant target URLs.
func TestBuildTargetsPerTenant(t *testing.T) {
	srv := startTwoTenantServer(t)
	client := newClient(2)
	targets, err := buildTargets(client, srv.URL, "/v1/predict", []string{"alpha", "beta"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 {
		t.Fatalf("got %d targets, want 2", len(targets))
	}
	wantURL := map[string]string{
		"alpha": srv.URL + "/v1/t/alpha/predict",
		"beta":  srv.URL + "/v1/t/beta/predict",
	}
	wantDim := map[string]int{"alpha": 4, "beta": 6}
	for _, tgt := range targets {
		if tgt.url != wantURL[tgt.tenant] {
			t.Errorf("tenant %s url = %s, want %s", tgt.tenant, tgt.url, wantURL[tgt.tenant])
		}
		// The body is {"state":[0,0,...]} sized by that tenant's model.
		var want int
		for _, c := range tgt.body {
			if c == '0' {
				want++
			}
		}
		if want != wantDim[tgt.tenant] {
			t.Errorf("tenant %s probe state has %d zeros, want %d", tgt.tenant, want, wantDim[tgt.tenant])
		}
	}
	if _, err := buildTargets(client, srv.URL, "/v1/predict", []string{"ghost"}, ""); err == nil {
		t.Error("unknown tenant probed without error")
	}
}

// runPass with -tenants round-robins both tenants and reports per-tenant
// success counts that sum to the total.
func TestRunPassPerTenantCounts(t *testing.T) {
	srv := startTwoTenantServer(t)
	client := newClient(4)
	targets, err := buildTargets(client, srv.URL, "/v1/predict", []string{"alpha", "beta"}, "")
	if err != nil {
		t.Fatal(err)
	}
	rep := runPass(client, targets, 300*time.Millisecond, 4, nil)
	if rep.Errors > 0 || rep.Requests == 0 {
		t.Fatalf("pass unhealthy: %d requests, %d errors", rep.Requests, rep.Errors)
	}
	if rep.Tenants["alpha"] == 0 || rep.Tenants["beta"] == 0 {
		t.Errorf("round-robin skipped a tenant: %v", rep.Tenants)
	}
	if rep.Tenants["alpha"]+rep.Tenants["beta"] != rep.Requests {
		t.Errorf("tenant counts %v don't sum to %d", rep.Tenants, rep.Requests)
	}
}

func TestParseServerTiming(t *testing.T) {
	cases := []struct {
		in           string
		queue, eval1 float64
	}{
		{"queue;dur=0.0123, eval;dur=0.4567", 0.0123, 0.4567},
		{"queue;dur=1.5", 1.5, 0},
		{"eval;dur=2", 0, 2},
		{"", 0, 0},
		{"db;dur=9, queue;dur=0.25, eval;dur=0.5", 0.25, 0.5},
		{"queue; dur=0.25 , eval;desc=\"x\";dur=0.5", 0.25, 0.5},
		{"queue;dur=bogus", 0, 0},
		{"garbage", 0, 0},
	}
	for _, c := range cases {
		q, e := parseServerTiming(c.in)
		if q != c.queue || e != c.eval1 {
			t.Errorf("parseServerTiming(%q) = (%g, %g), want (%g, %g)", c.in, q, e, c.queue, c.eval1)
		}
	}
}
