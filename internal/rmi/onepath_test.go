package rmi_test

import (
	"testing"

	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
)

// TestNodeTracksNoSessionForFailFast pins the wire half of "fail-fast is the
// zero policy of the one call path": par.NetRMI journals every call under a
// sequence number either way, but without an enabled fault policy it sends no
// session tag, so the node keeps no dedupe session — no applied watermark, no
// response cache — for any of its calls. The enabled policy is the control:
// the same traffic must leave sessions behind, or the probe proves nothing.
func TestNodeTracksNoSessionForFailFast(t *testing.T) {
	for _, tc := range []struct {
		name    string
		policy  par.FaultPolicy
		tracked bool
	}{
		{"policy-off", par.FaultPolicy{}, false},
		{"policy-on", par.FaultPolicy{Enabled: true}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			define := func() *par.Class {
				return par.NewDomain().Define("Cell",
					func(args []any) (any, error) { return new(int64), nil },
					map[string]par.MethodBody{
						"Add": func(target any, args []any) ([]any, error) {
							*target.(*int64) += args[0].(int64)
							return []any{*target.(*int64)}, nil
						},
					}).Wire(int64(0))
			}
			node := rmi.NewNode(exec.Real())
			par.HostClass(node, define())
			addr, err := node.Listen("127.0.0.1:0")
			if err != nil {
				t.Skipf("loopback TCP unavailable: %v", err)
			}
			defer node.Close()
			mw, err := par.DialNet(par.NetAddressTable(addr), par.WithFaultPolicy(tc.policy), par.WithStreams(2))
			if err != nil {
				t.Fatal(err)
			}
			defer mw.Close()
			ctx := exec.Real()
			// Every kind of call the path carries: export (control lane), sync,
			// windowed and one-way void, on two objects so both streams are used.
			done := ctx.NewChan(8)
			var objs []any
			for _, name := range []string{"C1", "C2"} {
				obj, err := mw.ExportNew(ctx, name, 0, define(), nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				objs = append(objs, obj)
				if _, err := mw.Invoke(ctx, obj, "Add", []any{int64(1)}, false); err != nil {
					t.Fatal(err)
				}
				mw.InvokeAsync(ctx, obj, "Add", []any{int64(2)}, false, done)
				if _, err := mw.Invoke(ctx, obj, "Add", []any{int64(4)}, true); err != nil {
					t.Fatal(err)
				}
			}
			for range objs {
				v, _ := done.Recv(ctx)
				if _, err := v.(*par.Completion).Reclaim(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if err := mw.Join(ctx); err != nil {
				t.Fatal(err)
			}
			for _, obj := range objs {
				res, err := mw.Invoke(ctx, obj, "Add", []any{int64(0)}, false)
				if err != nil || res[0].(int64) != 7 {
					t.Fatalf("sum = %v, %v, want 7", res, err)
				}
			}
			if got := node.Sessions(); (got > 0) != tc.tracked {
				t.Errorf("node tracks %d sessions, want tracked = %v", got, tc.tracked)
			}
		})
	}
}
