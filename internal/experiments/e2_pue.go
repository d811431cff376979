package experiments

import (
	"fmt"

	"df3/internal/report"
	"df3/internal/rng"
	"df3/internal/sched"
	"df3/internal/server"
	"df3/internal/sim"
)

// E2PUE runs the same batch campaign on a DF heater fleet and on a
// classical datacenter and compares fleet PUE — the quantitative claim of
// §II-A (CloudandHeat reports 1.026; conventional rooms sit near 1.5).
// The DF fleet additionally reports the fraction of energy delivered as
// useful heat, which the datacenter rejects through its chillers.
//
// Each platform is one independent arm, and the four fleets run in
// parallel on the fanout pool.
func E2PUE(o Options) *Result {
	res := newResult("E2 PUE: DF fleet vs classical datacenter")
	nDF, nDC := 24, 12
	frames := 1200
	if o.Quick {
		nDF, nDC, frames = 8, 4, 300
	}

	arms := []struct {
		name string
		spec server.Spec
		n    int
	}{
		{"DF heater fleet (Q.rad)", server.QradSpec(), nDF},
		{"DF boiler fleet", server.SmallBoilerSpec(), nDF / 4},
		{"DF crypto-heater fleet", server.CryptoHeaterSpec(), nDF},
		{"classical datacenter", server.DatacenterNodeSpec(), nDC},
	}
	type outcome struct {
		fleet         server.Fleet
		done          int
		pue, heatFrac float64
		makespan      sim.Time
	}
	outs := make([]outcome, len(arms))

	fanout(len(arms), func(i int) {
		a, out := arms[i], &outs[i]
		e := sim.New()
		var machines []*server.Machine
		for m := 0; m < a.n; m++ {
			mc := a.spec.Build(e, fmt.Sprintf("m-%d", m))
			machines = append(machines, mc)
			out.fleet.Add(mc)
		}
		pool := sched.NewPool(e, sched.FCFS, machines)
		stream := rng.New(o.Seed)
		for f := 0; f < frames; f++ {
			t := &server.Task{Work: stream.Pareto(120, 2.2)}
			t.OnDone = func(sim.Time) { out.done++ }
			pool.Submit(t, 0, nil)
		}
		e.Run(30 * sim.Day)
		if out.done != frames {
			panic(fmt.Sprintf("experiments: campaign incomplete: %d/%d", out.done, frames))
		}
		it, fac, heat := out.fleet.Energy(e.Now())
		out.pue = float64(fac) / float64(it)
		out.heatFrac = float64(heat) / float64(fac)
		out.makespan = e.Now()
	})

	t := report.NewTable("PUE on an identical batch campaign",
		"platform", "PUE", "useful-heat fraction", "makespan h")
	for i, a := range arms {
		t.Row(a.name, outs[i].pue, outs[i].heatFrac, float64(outs[i].makespan)/3600)
	}
	res.Tables = append(res.Tables, t)

	dfPUE, dfHeat := outs[0].pue, outs[0].heatFrac
	dcPUE := outs[3].pue
	res.Findings["df_pue"] = dfPUE
	res.Findings["dc_pue"] = dcPUE
	res.Findings["df_heat_fraction"] = dfHeat
	res.Notes = append(res.Notes, fmt.Sprintf(
		"DF PUE %.3f vs datacenter %.3f (paper: 1.026 vs conventional ~1.5); DF delivers %.0f%% of energy as useful heat",
		dfPUE, dcPUE, dfHeat*100))
	return res
}
