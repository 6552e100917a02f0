package experiments

import (
	"northstar/internal/machine"
	"northstar/internal/mc"
	"northstar/internal/msg"
	"northstar/internal/network"
	"northstar/internal/node"
)

func mach(nodes int, arch node.Arch, preset network.Preset, year float64) (*machine.Machine, error) {
	return machine.New(machine.Config{
		Nodes:  nodes,
		Node:   node.MustBuild(arch, roadmap2002, year),
		Fabric: preset,
		Seed:   42,
	})
}

// E6Collectives reproduces claim C4 at the collective level: barrier and
// 8-byte allreduce latency versus rank count, per fabric, plus the
// allreduce algorithm ablation.
func E6Collectives(quick bool) (*Table, error) {
	sizes := []int{2, 8, 32, 128, 512, 1024}
	if quick {
		sizes = []int{2, 8, 32, 64}
	}
	fabrics := []network.Preset{network.GigabitEthernet(), network.Myrinet2000(), network.InfiniBand4X()}
	t := &Table{
		ID:      "E6",
		Title:   "Barrier and 8-byte allreduce latency (us) vs ranks",
		Columns: []string{"fabric", "op", "P=2", "P=8", "P=32", "P=128", "P=512", "P=1024"},
		Notes: []string{
			"expected shape: O(log P) growth; low-latency fabrics ~an order of magnitude faster at P=1024",
		},
	}
	if quick {
		t.Columns = []string{"fabric", "op", "P=2", "P=8", "P=32", "P=64"}
	}
	run := func(preset network.Preset, p int, body func(r *msg.Rank)) (float64, error) {
		m, err := mach(p, node.Conventional, preset, 2002)
		if err != nil {
			return 0, err
		}
		end, err := msg.Run(m, msg.Options{}, body)
		if err != nil {
			return 0, err
		}
		return float64(end) * 1e6, nil
	}
	// One task per (fabric, op) row — each builds its own machines, so
	// the sweep shards across the mc pool; rows are added in sweep order.
	ops := []string{"barrier", "allreduce-8B"}
	rows := make([][]any, len(fabrics)*len(ops))
	errs := make([]error, len(rows))
	mc.ForEach(mc.Default(), len(rows), func(i int) {
		preset, op := fabrics[i/len(ops)], ops[i%len(ops)]
		row := []any{preset.Name, op}
		for _, p := range sizes {
			var us float64
			var err error
			if op == "barrier" {
				us, err = run(preset, p, func(r *msg.Rank) { r.Barrier() })
			} else {
				us, err = run(preset, p, func(r *msg.Rank) { r.Allreduce(8) })
			}
			if err != nil {
				errs[i] = err
				return
			}
			row = append(row, us)
		}
		rows[i] = row
	})
	for i := range rows {
		if errs[i] != nil {
			return nil, errs[i]
		}
		t.AddRow(rows[i]...)
	}
	return t, nil
}
