package bench

import (
	"fmt"
	"time"

	"tez/internal/am"
	"tez/internal/data"
	"tez/internal/platform"
	"tez/internal/sparklike"
)

// kMeansIterations regenerates Figure 11: the iterative K-means job run
// with per-iteration DAGs in one shared pre-warmed Tez session (container
// reuse across iterations) versus one isolated AM per iteration (the
// MR-style baseline of §6.4).
func kMeansIterations(sc Scale) (*Report, error) {
	plat := platform.New(platform.Default(4))
	defer plat.Stop()
	points, truth, err := data.GenPoints(plat.FS, "kmeans", sc.KMeansPoints, 3, 11)
	if err != nil {
		return nil, err
	}
	initial := make([][2]float64, len(truth))
	for i, c := range truth {
		initial[i] = [2]float64{c[0] + 3, c[1] - 3}
	}

	rep := &Report{
		Figure:  "Figure 11",
		Title:   "Pig/iterative: K-means (" + sc.Name + " scale)",
		Headers: []string{"iterations", "per-job AMs (ms)", "Tez session (ms)", "speedup"},
		Notes: []string{
			fmt.Sprintf("%d points, 3 centroids; one DAG per iteration", sc.KMeansPoints),
			"session mode pre-warms containers and reuses them across iteration DAGs (§4.2)",
		},
	}

	for _, iters := range sc.KMeansIters {
		start := time.Now()
		_, err := sparklike.RunKMeansIsolated(plat, am.Config{Name: "km-iso"},
			points, initial, iters, fmt.Sprintf("/bench/km-iso-%d", iters))
		if err != nil {
			return nil, err
		}
		isoDur := time.Since(start)

		sess := am.NewSession(plat, am.Config{
			Name:                 fmt.Sprintf("km-sess-%d", iters),
			PrewarmContainers:    2,
			ContainerIdleRelease: 500 * time.Millisecond,
		})
		start = time.Now()
		_, err = sparklike.RunKMeans(sess, plat, points, initial, iters,
			fmt.Sprintf("/bench/km-sess-%d", iters))
		sess.Close()
		if err != nil {
			return nil, err
		}
		sessDur := time.Since(start)

		rep.AddRow(fmt.Sprintf("%d", iters), ms(isoDur), ms(sessDur), speedup(isoDur, sessDur))
	}
	return rep, nil
}
