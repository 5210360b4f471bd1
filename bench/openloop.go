package main

import "time"

// pacer is an open-loop schedule: send i is due at start + i·every,
// whatever happened to the sends before it. The clock and the sleep are
// fields so the accounting can be tested without waiting.
type pacer struct {
	start time.Time
	every time.Duration
	now   func() time.Time
	sleep func(time.Duration)
}

func (p pacer) due(i int) time.Time {
	return p.start.Add(time.Duration(i) * p.every)
}

// wait blocks until send i is due and returns how late it then starts:
// zero when the generator kept up, the backlog when an earlier send
// overran. The caller times the send from due(i), not from when wait
// returned, so that a stall is charged to every send queued behind it.
func (p pacer) wait(i int) time.Duration {
	now, sleep := p.now, p.sleep
	if now == nil {
		now, sleep = time.Now, time.Sleep
	}
	due := p.due(i)
	if d := due.Sub(now()); d > 0 {
		sleep(d)
	}
	if late := now().Sub(due); late > 0 {
		return late
	}
	return 0
}
