package sim

// Hot-path benchmarks for the event engine. BenchmarkSimEngine is the
// headline number tracked in BENCH_hotpath.json: one iteration schedules and
// drains a mixed event/process/store workload shaped like what one
// accel.Machine run produces (timer events, process switches, store
// handoffs). Allocation counts matter as much as ns/op here — the engine
// runs millions of events per simulation.

import "testing"

// BenchmarkSimEngine drains 1000 plain events plus two producer/consumer
// process pairs through one environment per iteration.
func BenchmarkSimEngine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := NewEnv()
		for j := 0; j < 1000; j++ {
			env.Schedule(Time(j%97), func() {})
		}
		for k := 0; k < 2; k++ {
			st := NewStore(env, 4)
			env.Spawn("producer", producer(st, 100, 1))
			got, waited := 0, false
			env.Spawn("consumer", func(p *Proc) bool {
				for got < 100 {
					if !waited {
						if !st.Get(p) {
							return false
						}
						waited = true
						p.Wait(2)
						return false
					}
					got++
					waited = false
				}
				return true
			})
		}
		env.Run()
	}
}

// BenchmarkSimSchedule measures the pure Schedule/step cycle with no
// processes: the event queue in isolation.
func BenchmarkSimSchedule(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Schedule(Time(i%13), fn)
		env.step()
	}
}
