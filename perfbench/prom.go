package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// series is one sample of a Prometheus text exposition.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is a parsed exposition: the server's /metrics, or the in-process
// registry rendered by obs.Registry.WritePrometheus.
type scrape []series

// parseProm reads the text exposition format (version 0.0.4).
func parseProm(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s := series{labels: map[string]string{}}
		rest := line
		if i := strings.IndexAny(line, "{ "); i >= 0 && line[i] == '{' {
			s.name = line[:i]
			j, err := parseLabels(line[i+1:], s.labels)
			if err != nil {
				return nil, fmt.Errorf("metrics line %q: %w", line, err)
			}
			rest = line[i+1+j:]
		} else if i >= 0 {
			s.name, rest = line[:i], line[i:]
		}
		fields := strings.Fields(rest)
		if s.name == "" || len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s.value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

// parseLabels reads `k="v",...}` into dst and returns the bytes consumed.
func parseLabels(s string, dst map[string]string) (int, error) {
	i := 0
	for {
		if i < len(s) && s[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 || i+eq+1 >= len(s) || s[i+eq+1] != '"' {
			return 0, fmt.Errorf("malformed labels")
		}
		key := strings.TrimLeft(s[i:i+eq], ",")
		var val strings.Builder
		j := i + eq + 2
		for ; j < len(s) && s[j] != '"'; j++ {
			if s[j] == '\\' && j+1 < len(s) {
				j++
				if s[j] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(s[j])
		}
		if j >= len(s) {
			return 0, fmt.Errorf("unterminated label value")
		}
		dst[key] = val.String()
		i = j + 1
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// sum adds every sample of name whose labels include the given key/value
// pairs.
func (sc scrape) sum(name string, kv ...string) float64 {
	var total float64
next:
	for _, s := range sc {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if s.labels[kv[i]] != kv[i+1] {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// stage returns a pipeline stage's summed seconds and count.
func (sc scrape) stage(name string) (sum, count float64) {
	return sc.sum("kamel_stage_duration_seconds_sum", "stage", name),
		sc.sum("kamel_stage_duration_seconds_count", "stage", name)
}
