package ovsdb

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// mirror reconstructs a table's rows from monitor updates, the way the
// controller does. The property: after any sequence of transactions, the
// mirror converges to exactly the table's contents.
type mirror struct {
	mu   sync.Mutex
	rows map[string]Row // uuid → row
	seen int
}

func (m *mirror) apply(tu TableUpdates) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for uuid, ru := range tu["Port"] {
		switch {
		case ru.New != nil && ru.Old == nil: // insert
			m.rows[uuid] = ru.New
		case ru.New == nil && ru.Old != nil: // delete
			delete(m.rows, uuid)
		default: // modify: New carries all selected columns
			m.rows[uuid] = ru.New
		}
	}
	m.seen++
}

func TestPropMonitorMirrorsTable(t *testing.T) {
	db := newTestDB(t)
	m := &mirror{rows: make(map[string]Row)}
	_, initial, err := db.AddMonitor(map[string]*MonitorRequest{
		"Port": {Columns: []string{"name", "number", "enabled"}},
	}, func(_ uint64, tu TableUpdates) { m.apply(tu) })
	if err != nil {
		t.Fatal(err)
	}
	m.apply(initial)

	r := rand.New(rand.NewSource(11))
	names := make([]string, 0, 40)
	txns := 0
	for i := 0; i < 300; i++ {
		switch op := r.Intn(10); {
		case op < 5 || len(names) == 0: // insert
			name := fmt.Sprintf("p%d", i)
			res := db.Transact([]Operation{OpInsert("Port", map[string]Value{
				"name": name, "number": int64(r.Intn(100)),
			})})
			if res[0].Error != "" {
				t.Fatalf("insert: %+v", res[0])
			}
			names = append(names, name)
			txns++
		case op < 8: // update
			name := names[r.Intn(len(names))]
			res := db.Transact([]Operation{OpUpdate("Port", map[string]Value{
				"number": int64(r.Intn(100)), "enabled": r.Intn(2) == 0,
			}, Cond("name", "==", name))})
			if res[0].Error != "" {
				t.Fatalf("update: %+v", res[0])
			}
			if res[0].Count > 0 {
				txns++
			}
		default: // delete
			j := r.Intn(len(names))
			name := names[j]
			res := db.Transact([]Operation{OpDelete("Port", Cond("name", "==", name))})
			if res[0].Error != "" {
				t.Fatalf("delete: %+v", res[0])
			}
			if res[0].Count > 0 {
				txns++
			}
			names = append(names[:j], names[j+1:]...)
		}
	}
	// An update that changes nothing produces no notification, so wait
	// only for row-count convergence plus a settle period.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m.mu.Lock()
		converged := len(m.rows) == db.RowCount("Port")
		m.mu.Unlock()
		if converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mirror has %d rows, table has %d", len(m.rows), db.RowCount("Port"))
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // drain any trailing modifies

	// Deep-compare the mirror against a select.
	res := db.Transact([]Operation{OpSelect("Port")})
	if res[0].Error != "" {
		t.Fatal(res[0].Error)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(res[0].Rows) != len(m.rows) {
		t.Fatalf("mirror %d rows, select %d", len(m.rows), len(res[0].Rows))
	}
	for _, sel := range res[0].Rows {
		uuid := string(sel["_uuid"].(UUID))
		mrow, ok := m.rows[uuid]
		if !ok {
			t.Fatalf("mirror missing row %s", uuid)
		}
		for _, col := range []string{"name", "number", "enabled"} {
			if !ValueEqual(sel[col], mrow[col]) {
				t.Fatalf("row %s column %s: mirror %v, table %v",
					uuid, col, mrow[col], sel[col])
			}
		}
	}
}
