package trace

import (
	"fmt"
	"io"
)

// WriteMetricCSV writes a utilization timeline as CSV with the
// paper's §V-D columns, one row per poll interval. `dynmr render
// timeline` writes it from a run archive's sample records.
func WriteMetricCSV(w io.Writer, samples []MetricSample) error {
	if _, err := io.WriteString(w, "time_s,cpu_util_pct,disk_read_kbs,slot_occupancy_pct\n"); err != nil {
		return err
	}
	for _, m := range samples {
		if _, err := fmt.Fprintf(w, "%g,%g,%g,%g\n",
			m.Time, m.CPUUtilPct, m.DiskReadKBs, m.SlotOccupancyPct); err != nil {
			return err
		}
	}
	return nil
}
