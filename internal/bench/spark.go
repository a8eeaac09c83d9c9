package bench

import (
	"fmt"
	"sync"
	"time"

	"tez/internal/am"
	"tez/internal/cluster"
	"tez/internal/data"
	"tez/internal/metrics"
	"tez/internal/platform"
	"tez/internal/relop"
	"tez/internal/sparklike"
)

// jobsPerUser and thinkTime model an interactive session: each user
// submits several partitioning jobs with gaps between them. The daemon
// holds its executors through the gaps; Tez releases them.
const (
	jobsPerUser = 3
	thinkTime   = 25 * time.Millisecond
)

// runSparkUsers runs one concurrency round: users (staggered by 5ms) each
// run a sequence of partitioning jobs over their own dataset, in either
// the service-daemon or the Tez-session execution model. It returns
// per-job latencies and the sampled per-user container timeline.
func runSparkUsers(plat *platform.Platform, tables []*relop.Table, execs int, service bool) ([]time.Duration, []metrics.Sample, error) {
	users := len(tables)
	sampler := metrics.StartSampler(2*time.Millisecond, func() map[string]int {
		out := map[string]int{}
		for app, res := range plat.RM.AllocatedByApp() {
			out[app] = res.MemoryMB / 1024
		}
		return out
	})

	perUser := make([][]time.Duration, users)
	errs := make([]error, users)
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		u := u
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(u) * 5 * time.Millisecond)
			name := fmt.Sprintf("user-%d", u+1)
			mkJob := func(j int) sparklike.PartitionJob {
				return sparklike.PartitionJob{
					Table:      tables[u],
					KeyCol:     0,
					Partitions: 4,
					OutPath:    fmt.Sprintf("/bench/spark/%s-%v-%d", name, service, j),
				}
			}
			if service {
				// The daemon acquires a fixed pool once and holds it for
				// the whole interactive session — through every think-time
				// gap. Pool acquisition is charged to the first job.
				start := time.Now()
				svc, err := sparklike.StartService(plat, name, execs,
					cluster.Resource{MemoryMB: 1024, VCores: 1}, 100*time.Millisecond)
				if err != nil {
					errs[u] = err
					return
				}
				for j := 0; j < jobsPerUser; j++ {
					if j > 0 {
						time.Sleep(thinkTime)
						start = time.Now()
					}
					if err := svc.RunPartition(fmt.Sprintf("job%d", j), mkJob(j)); err != nil {
						errs[u] = err
						break
					}
					perUser[u] = append(perUser[u], time.Since(start))
				}
				svc.Close()
				return
			}
			sess := am.NewSession(plat, am.Config{
				Name:                 name,
				ContainerIdleRelease: 10 * time.Millisecond,
				// A 2-stage repartition gains nothing from early reducers;
				// waiting reducers would hold slots other tenants need.
				SlowStartMin: 1, SlowStartMax: 1,
			})
			defer sess.Close()
			for j := 0; j < jobsPerUser; j++ {
				if j > 0 {
					time.Sleep(thinkTime)
				}
				start := time.Now()
				if err := sparklike.RunPartitionTez(sess, fmt.Sprintf("job%d", j), mkJob(j)); err != nil {
					errs[u] = err
					break
				}
				perUser[u] = append(perUser[u], time.Since(start))
			}
		}()
	}
	wg.Wait()
	time.Sleep(20 * time.Millisecond) // let releases land in the timeline
	samples := sampler.Stop()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	var latencies []time.Duration
	for _, ls := range perUser {
		latencies = append(latencies, ls...)
	}
	return latencies, samples, nil
}

// sparkCluster builds a deliberately capacity-constrained cluster: the
// aggregate daemon demand (users × executors) exceeds the slot count, so
// fixed pools starve late arrivals — the contention Figures 12–13 study.
func sparkCluster(sc Scale) platform.Config {
	cfg := platform.Default(sc.SparkClusterN)
	cfg.Cluster.NodeResource = cluster.Resource{MemoryMB: 4096, VCores: 4}
	return cfg
}

func genUserTables(plat *platform.Platform, users, rows int) ([]*relop.Table, error) {
	tables := make([]*relop.Table, users)
	for u := 0; u < users; u++ {
		t, err := data.GenZipfPairs(plat.FS, fmt.Sprintf("lineitem_u%d", u), rows, 60, 1.1, int64(20+u))
		if err != nil {
			return nil, err
		}
		tables[u] = t
	}
	return tables, nil
}

// sparkTimelines regenerates Figure 12: per-user container holdings over
// time, service-based vs Tez-based, 5 concurrent users.
func sparkTimelines(sc Scale) (*Report, error) {
	rep := &Report{
		Figure:  "Figure 12",
		Title:   "Sharing a cluster across concurrent Spark-style jobs (" + sc.Name + " scale)",
		Headers: []string{"mode", "t (ms)"},
		Notes: []string{
			"containers held per user, sampled during the run",
			"service daemons hold executors for the app lifetime; Tez releases idle containers to later users",
		},
	}
	for u := 1; u <= sc.SparkUsers; u++ {
		rep.Headers = append(rep.Headers, fmt.Sprintf("u%d", u))
	}
	for _, service := range []bool{true, false} {
		plat := platform.New(sparkCluster(sc))
		tables, err := genUserTables(plat, sc.SparkUsers, sc.SparkRows)
		if err != nil {
			plat.Stop()
			return nil, err
		}
		_, samples, err := runSparkUsers(plat, tables, sc.SparkExecs, service)
		plat.Stop()
		if err != nil {
			return nil, err
		}
		mode := "tez"
		if service {
			mode = "service"
		}
		// Condense to ~12 timeline rows.
		step := len(samples)/12 + 1
		for i := 0; i < len(samples); i += step {
			s := samples[i]
			row := []string{mode, ms(s.At)}
			for u := 1; u <= sc.SparkUsers; u++ {
				row = append(row, fmt.Sprintf("%d", s.Values[fmt.Sprintf("user-%d", u)]))
			}
			rep.AddRow(row...)
		}
	}
	return rep, nil
}

// sparkLatency regenerates Figure 13: mean job latency under 5-user
// concurrency across scale factors, service vs Tez.
func sparkLatency(sc Scale) (*Report, error) {
	rep := &Report{
		Figure:  "Figure 13",
		Title:   "Spark multi-tenancy on YARN: latency vs scale (" + sc.Name + " scale)",
		Headers: []string{"scale", "service mean (ms)", "tez mean (ms)", "improvement"},
		Notes: []string{
			fmt.Sprintf("%d concurrent users partitioning a lineitem-style dataset along its key", sc.SparkUsers),
		},
	}
	for _, mult := range sc.SparkScales {
		var means [2]time.Duration
		for i, service := range []bool{true, false} {
			plat := platform.New(sparkCluster(sc))
			tables, err := genUserTables(plat, sc.SparkUsers, sc.SparkRows*mult)
			if err != nil {
				plat.Stop()
				return nil, err
			}
			lats, _, err := runSparkUsers(plat, tables, sc.SparkExecs, service)
			plat.Stop()
			if err != nil {
				return nil, err
			}
			var total time.Duration
			for _, l := range lats {
				total += l
			}
			means[i] = total / time.Duration(len(lats))
		}
		rep.AddRow(fmt.Sprintf("%dx", mult), ms(means[0]), ms(means[1]), speedup(means[0], means[1]))
	}
	return rep, nil
}
