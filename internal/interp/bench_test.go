package interp_test

import (
	"testing"

	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/trace"
	"reusetool/internal/workloads"
)

// BenchmarkInterpreter times runs into trace.Discard: a 1000×1000
// read-write sweep, and sweep3d and gtc at the sizes perfbench's
// sampled-large workload analyzes.
func BenchmarkInterpreter(b *testing.B) {
	p := ir.NewProgram("bench")
	n := p.Param("N", 1000)
	a := p.AddArray("A", 8, n, n)
	i, j := p.Var("i"), p.Var("j")
	p.AddRoutine("main", "f", 1).Body = []ir.Stmt{
		ir.For(j, ir.C(0), ir.Sub(n, ir.C(1)),
			ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)),
				ir.Do(a.Read(i, j), a.WriteRef(i, j)))),
	}
	b.Run("sweep-1000x1000", func(b *testing.B) {
		benchRun(b, workloads.MustFinalize(p), nil, nil)
	})
	for _, c := range []struct {
		name   string
		params map[string]int64
	}{
		{"sweep3d", map[string]int64{"it": 24, "jt": 24, "kt": 24}},
		{"gtc", map[string]int64{"micell": 60}},
	} {
		b.Run(c.name, func(b *testing.B) {
			prog, init, err := workloads.Build(c.name)
			if err != nil {
				b.Fatal(err)
			}
			benchRun(b, workloads.MustFinalize(prog), c.params, initOpts(init))
		})
	}
}

func benchRun(b *testing.B, info *ir.Info, params map[string]int64, opts []interp.Option) {
	b.ReportAllocs()
	var accesses uint64
	for k := 0; k < b.N; k++ {
		res, err := interp.Run(info, params, trace.Discard{}, opts...)
		if err != nil {
			b.Fatal(err)
		}
		accesses = res.Accesses
	}
	b.ReportMetric(float64(accesses), "accesses/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(accesses), "ns/access")
}
