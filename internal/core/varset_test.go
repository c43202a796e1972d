package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gom/internal/swizzle"
)

// varModel is the reference model of the variable registry: the set of
// variables that must be live, plus variables freed or released since,
// which must stay closed.
type varModel struct {
	live map[*Var]bool
	dead []*Var
}

func newVarModel() *varModel { return &varModel{live: make(map[*Var]bool)} }

func (m *varModel) kill(v *Var) {
	if m.live[v] {
		delete(m.live, v)
		m.dead = append(m.dead, v)
	}
}

func (m *varModel) killAll() {
	for v := range m.live {
		m.kill(v)
	}
}

// varSpecs are the specs the registry tests switch between: application-,
// type- and variable-specific, so the same (type, name) pair resolves to
// different strategies in different applications.
func varSpecs() []*swizzle.Spec {
	return []*swizzle.Spec{
		appSpec(swizzle.LDS),
		appSpec(swizzle.LIS),
		appSpec(swizzle.NOS),
		swizzle.NewSpec("type-mix", swizzle.EDS).WithType("Connection", swizzle.LIS),
		swizzle.NewSpec("var-mix", swizzle.LIS).WithVar("a", swizzle.LDS).WithVar("b", swizzle.NOS),
	}
}

var varNames = []string{"a", "b", "c"}

// newLoadedVar declares a variable of a random name and type and loads a
// random object of that type into it, so it holds registered swizzling
// bookkeeping (an RRL entry or descriptor fan-in) under swizzling specs.
func newLoadedVar(t *testing.T, rng *rand.Rand, b *testBase, om *OM) *Var {
	name := varNames[rng.Intn(len(varNames))]
	typ, id := b.part, b.parts[rng.Intn(len(b.parts))]
	if rng.Intn(2) == 0 {
		c := b.conns[rng.Intn(len(b.conns))]
		typ, id = b.conn, c[rng.Intn(len(c))]
	}
	v := om.NewVar(name, typ)
	if want := om.Spec().ForVar(name, typ.Name); v.Strategy() != want {
		t.Errorf("NewVar(%q, %s) strategy %v under %s, want %v", name, typ.Name, v.Strategy(), om.Spec().Name, want)
	}
	if err := om.Load(v, id); err != nil {
		t.Errorf("Load: %v", err)
	}
	return v
}

// checkVarModel compares the registry against the model: the snapshot
// holds exactly the live variables, every closed variable reports
// ErrClosedVar, and the object manager's invariants hold.
func checkVarModel(t *testing.T, om *OM, m *varModel, step string) {
	t.Helper()
	snap := om.vars.snapshot()
	got := make(map[*Var]bool, len(snap))
	for _, v := range snap {
		if got[v] {
			t.Fatalf("%s: variable %q registered twice", step, v.Name())
		}
		got[v] = true
	}
	if len(got) != len(m.live) || om.LiveVars() != len(m.live) {
		t.Fatalf("%s: registry holds %d variables (LiveVars %d), model %d", step, len(got), om.LiveVars(), len(m.live))
	}
	for v := range m.live {
		if !got[v] {
			t.Fatalf("%s: live variable %q missing from the registry", step, v.Name())
		}
	}
	for _, v := range m.dead {
		if _, err := om.OID(v); !errors.Is(err, ErrClosedVar) {
			t.Fatalf("%s: closed variable %q: OID err = %v, want ErrClosedVar", step, v.Name(), err)
		}
	}
	if err := om.Verify(); err != nil {
		t.Fatalf("%s: invariants violated:\n%v", step, err)
	}
}

// TestVarRegistryProperty drives the variable lifecycle with a seeded
// random sequence of NewVar, FreeVar (double frees included), Commit,
// BeginApplication with spec switches, and Discard, checking the registry
// against a model set after every step.
func TestVarRegistryProperty(t *testing.T) {
	specs := varSpecs()
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			b := buildBase(t, 30)
			om := b.om(t, Options{})
			om.BeginApplication(specs[0])
			m := newVarModel()
			var created []*Var
			for step := 0; step < 1000; step++ {
				var op string
				// Structural steps are rare, so dozens of variables are
				// live at once and frees reorder every shard.
				switch r := rng.Intn(100); {
				case r < 50:
					op = "NewVar"
					v := newLoadedVar(t, rng, b, om)
					m.live[v] = true
					created = append(created, v)
				case r < 97 && len(created) > 0:
					op = "FreeVar"
					v := created[rng.Intn(len(created))]
					om.FreeVar(v)
					m.kill(v)
				case r < 98:
					op = "Commit"
					if err := om.Commit(); err != nil {
						t.Fatal(err)
					}
					m.killAll()
				case r < 99:
					sp := specs[rng.Intn(len(specs))]
					op = "BeginApplication(" + sp.Name + ")"
					om.BeginApplication(sp)
					m.killAll()
				default:
					op = "Discard"
					om.Discard()
					m.killAll()
				}
				checkVarModel(t, om, m, fmt.Sprintf("step %d %s", step, op))
			}
		})
	}
}

// TestVarRegistryPropertyConcurrent runs the same lifecycle on a
// Concurrent object manager: four goroutines declare, load and free
// (and double-free) their own variables at once; between rounds the
// parent commits, switches applications or discards, and the registry
// is checked against the union of the goroutines' models. Run it under
// -race.
func TestVarRegistryPropertyConcurrent(t *testing.T) {
	const workers = 4
	specs := varSpecs()
	rng := rand.New(rand.NewSource(1))
	b := buildBase(t, 30)
	om := b.om(t, Options{Concurrent: true})
	om.BeginApplication(specs[0])
	models := make([]*varModel, workers)
	for w := range models {
		models[w] = newVarModel()
	}
	for round := 0; round < 30; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				m := models[w]
				var mine []*Var
				for i := 0; i < 40; i++ {
					if len(mine) == 0 || rng.Intn(2) == 0 {
						v := newLoadedVar(t, rng, b, om)
						m.live[v] = true
						mine = append(mine, v)
						continue
					}
					v := mine[rng.Intn(len(mine))]
					om.FreeVar(v)
					m.kill(v)
					if _, err := om.OID(v); !errors.Is(err, ErrClosedVar) {
						t.Errorf("freed variable: OID err = %v, want ErrClosedVar", err)
					}
				}
			}(w, int64(round*workers+w))
		}
		wg.Wait()

		all := newVarModel()
		for _, m := range models {
			for v := range m.live {
				all.live[v] = true
			}
			all.dead = append(all.dead, m.dead...)
		}
		checkVarModel(t, om, all, fmt.Sprintf("round %d", round))

		switch rng.Intn(4) {
		case 0: // keep the variables for the next round
			continue
		case 1:
			if err := om.Commit(); err != nil {
				t.Fatal(err)
			}
		case 2:
			om.BeginApplication(specs[rng.Intn(len(specs))])
		default:
			om.Discard()
		}
		for _, m := range models {
			m.killAll()
		}
	}
}
