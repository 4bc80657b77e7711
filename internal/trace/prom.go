package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Prometheus text-exposition encoding (version 0.0.4). The encoder is
// deliberately small: families are sorted by name, samples within a
// family keep their given order (callers build them deterministically),
// metric names are sanitized to the legal charset, and label values are
// escaped per the spec (backslash, double-quote, newline).

// PromType is a Prometheus metric family type.
type PromType string

const (
	PromCounter   PromType = "counter"
	PromGauge     PromType = "gauge"
	PromUntyped   PromType = "untyped"
	PromHistogram PromType = "histogram"
)

// PromLabel is one name="value" pair on a sample.
type PromLabel struct {
	Name  string
	Value string
}

// PromSample is one exposition line's worth of data. Suffix, when set,
// is appended verbatim to the sanitized family name — histogram
// families use it to emit the spec's _bucket/_sum/_count series under
// one # TYPE declaration.
type PromSample struct {
	Labels []PromLabel
	Value  float64
	Suffix string
}

// PromFamily is a named metric family: a HELP line, a TYPE line, and
// one or more samples.
type PromFamily struct {
	Name    string
	Help    string
	Type    PromType
	Samples []PromSample
}

// PromName sanitizes s into a legal Prometheus metric or label name:
// letters, digits, underscores, and (for metric names) colons survive;
// the registry's dots become underscores; anything else becomes an
// underscore; a leading digit gains an underscore prefix.
func PromName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

var promValueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promHelpEscaper escapes HELP text: only backslash and newline, per
// the exposition format (quotes are legal in HELP).
var promHelpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// WritePrometheus encodes the families in deterministic order: sorted
// by sanitized family name, each with # HELP and # TYPE lines followed
// by its samples.
func WritePrometheus(w io.Writer, families []PromFamily) error {
	sorted := append([]PromFamily(nil), families...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return PromName(sorted[i].Name) < PromName(sorted[j].Name)
	})
	for _, f := range sorted {
		name := PromName(f.Name)
		if name == "" || len(f.Samples) == 0 {
			continue
		}
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, promHelpEscaper.Replace(f.Help)); err != nil {
				return err
			}
		}
		typ := f.Type
		if typ == "" {
			typ = PromUntyped
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ); err != nil {
			return err
		}
		for _, s := range f.Samples {
			if err := writePromSample(w, name, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromSample(w io.Writer, name string, s PromSample) error {
	var b strings.Builder
	b.WriteString(name)
	b.WriteString(s.Suffix)
	if len(s.Labels) > 0 {
		b.WriteByte('{')
		for i, l := range s.Labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(PromName(l.Name))
			b.WriteString(`="`)
			b.WriteString(promValueEscaper.Replace(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	_, err := fmt.Fprintf(w, "%s %v\n", b.String(), s.Value)
	return err
}

// PromFamilies converts the tracer's registry into exposition families:
// counters become <prefix><name>_total counters, histograms explode
// into _count/_sum counters plus _min/_max gauges (the registry keeps
// scalar aggregates, not buckets). Names are sanitized, families sorted
// by WritePrometheus.
func (t *Tracer) PromFamilies(prefix string) []PromFamily {
	if t == nil {
		return nil
	}
	fams := make([]PromFamily, 0, int(NumCounters)+4*len(t.reg.hists))
	t.EachCounter(func(c Counter, v int64) {
		name := c.String()
		fams = append(fams, PromFamily{
			Name:    prefix + name + "_total",
			Help:    "Registry counter " + name + ".",
			Type:    PromCounter,
			Samples: []PromSample{{Value: float64(v)}},
		})
	})
	for i, h := range t.reg.hists {
		if h.Count == 0 {
			continue
		}
		name := histNames[i]
		fams = append(fams,
			PromFamily{
				Name:    prefix + name + "_count",
				Help:    "Observations folded into histogram " + name + ".",
				Type:    PromCounter,
				Samples: []PromSample{{Value: float64(h.Count)}},
			},
			PromFamily{
				Name:    prefix + name + "_sum",
				Help:    "Sum of histogram " + name + " observations.",
				Type:    PromCounter,
				Samples: []PromSample{{Value: h.Sum}},
			},
			PromFamily{
				Name:    prefix + name + "_min",
				Help:    "Minimum observation of histogram " + name + ".",
				Type:    PromGauge,
				Samples: []PromSample{{Value: h.Min}},
			},
			PromFamily{
				Name:    prefix + name + "_max",
				Help:    "Maximum observation of histogram " + name + ".",
				Type:    PromGauge,
				Samples: []PromSample{{Value: h.Max}},
			},
		)
	}
	return fams
}
