package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels string // raw text between the braces, "" when absent
	value  float64
}

// promPage is one parsed scrape of plad's /metrics.
type promPage []promSample

// parseProm reads the Prometheus text format as plad emits it: comment
// lines, then `name value` or `name{labels} value`. Timestamps are not
// emitted and not accepted.
func parseProm(r io.Reader) (promPage, error) {
	var page promPage
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s := promSample{name: strings.TrimSpace(line[:sp]), value: v}
		if open := strings.IndexByte(s.name, '{'); open >= 0 {
			if !strings.HasSuffix(s.name, "}") {
				return nil, fmt.Errorf("metrics line %q: unterminated labels", line)
			}
			s.labels = s.name[open+1 : len(s.name)-1]
			s.name = s.name[:open]
		}
		page = append(page, s)
	}
	return page, sc.Err()
}

// sum adds a metric over all its label sets (shards, transports); a
// metric the page does not carry sums to 0.
func (p promPage) sum(name string) float64 {
	total := 0.0
	for _, s := range p {
		if s.name == name {
			total += s.value
		}
	}
	return total
}

// max returns a metric's largest value over its label sets.
func (p promPage) max(name string) float64 {
	best := 0.0
	for _, s := range p {
		if s.name == name && s.value > best {
			best = s.value
		}
	}
	return best
}

// delta is after.sum(name) − p.sum(name): a counter's growth between
// two scrapes of the same process.
func (p promPage) delta(after promPage, name string) float64 {
	return after.sum(name) - p.sum(name)
}
