package core_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"

	"repro/internal/deploy"
	"repro/internal/obs"
	"repro/internal/ovsdb"
	"repro/internal/snvs"
)

// TestExplainDuringCommits: /debug/explain on an input relation reads
// the relation's contents while wire commits change it. The query runs
// on the controller's event loop, between transactions, so a hammer of
// them during 200 commits finds no data race and answers every one with
// the input leaf of a port that stays.
func TestExplainDuringCommits(t *testing.T) {
	schema, err := snvs.Schema()
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	s, err := deploy.Start(deploy.Spec{
		Schema: schema, Rules: snvs.Rules, Obs: o,
		Classes: []deploy.Class{{Program: snvs.Pipeline(), IDs: []string{"snvs0"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	port := func(name string, num int64) ovsdb.Operation {
		return ovsdb.OpInsert("Port", map[string]ovsdb.Value{
			"name": name, "port_num": num, "vlan_mode": "access", "tag": int64(10),
		})
	}
	if err := s.Transact(port("p0", 1000)); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitEntries("snvs0", "in_vlan", 1); err != nil {
		t.Fatal(err)
	}
	got, err := s.Ctrl.Contents("Port")
	if err != nil || len(got) != 1 {
		t.Fatalf("Contents(Port) = %v, %v; want p0 alone", got, err)
	}
	query := "/debug/explain?relation=Port&key=" + url.QueryEscape(got[0].String())

	stop := make(chan struct{})
	done := make(chan struct{})
	var served atomic.Int64
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			w := httptest.NewRecorder()
			o.Handler().ServeHTTP(w, httptest.NewRequest("GET", query, nil))
			var res struct {
				Tree struct {
					Kind string `json:"kind"`
				} `json:"tree"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &res); w.Code != 200 || err != nil || res.Tree.Kind != "input" {
				t.Errorf("explain p0 during commits: %d %s", w.Code, w.Body)
				return
			}
			served.Add(1)
		}
	}()
	for i := 1; i <= 100; i++ {
		if err := s.Transact(port(fmt.Sprintf("p%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 100; i++ {
		if err := s.Transact(ovsdb.OpDelete("Port", ovsdb.Cond("name", "==", fmt.Sprintf("p%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	if served.Load() == 0 {
		t.Fatal("no explain query was answered during the commits")
	}
}
