package wifi

import "blu/internal/rng"

// Domain simulates a set of stations that can all hear each other
// (one carrier-sensing contention domain) with a slotted DCF: stations
// freeze backoff while the medium is busy, collide when their counters
// expire together, and double their contention window on collision.
//
// Hidden terminals in different parts of the floor usually occupy
// separate domains (use Station.Generate); Domain exists to produce
// *correlated* hidden-terminal activity, which violates BLU's
// independence assumption and is used to stress-test the inference.
type Domain struct {
	Stations []Station
}

type domainStation struct {
	st          Station
	nextArrival int64 // time the station becomes backlogged
	backoff     int   // remaining backoff slots, -1 if not drawn
	cw          int
	retries     int
	act         *Activity
}

// Generate runs the shared-medium DCF over horizonUS microseconds and
// returns one Activity per station, in Stations order.
func (d Domain) Generate(horizonUS int64, r *rng.Source) []*Activity {
	sts := make([]*domainStation, len(d.Stations))
	for i, s := range d.Stations {
		tm := s.Traffic
		if tm == nil {
			tm = Saturated{}
		}
		sts[i] = &domainStation{
			st:          s,
			nextArrival: tm.NextGapUS(r),
			backoff:     -1,
			cw:          CWMin,
			act:         &Activity{HorizonUS: horizonUS},
		}
	}
	var now int64
	for now < horizonUS {
		// Collect backlogged stations; if none, jump to the next arrival.
		var backlogged []*domainStation
		next := int64(-1)
		for _, s := range sts {
			if s.nextArrival <= now {
				backlogged = append(backlogged, s)
			} else if next < 0 || s.nextArrival < next {
				next = s.nextArrival
			}
		}
		if len(backlogged) == 0 {
			if next < 0 {
				break
			}
			now = next
			continue
		}
		// Draw backoff counters for stations that need one.
		minSlots := -1
		for _, s := range backlogged {
			if s.backoff < 0 {
				s.backoff = r.Intn(s.cw + 1)
			}
			if minSlots < 0 || s.backoff < minSlots {
				minSlots = s.backoff
			}
		}
		now += DIFSUS + int64(minSlots)*SlotUS
		if now >= horizonUS {
			break
		}
		// Stations whose counters hit zero transmit together.
		var winners []*domainStation
		for _, s := range backlogged {
			s.backoff -= minSlots
			if s.backoff == 0 {
				winners = append(winners, s)
				s.backoff = -1
			}
		}
		var busyUntil int64
		for _, s := range winners {
			rate := s.st.Rate
			if rate <= 0 {
				rate = 24
			}
			dur := ExchangeDurationUS(DefaultMTUB, rate)
			end := now + dur
			if end > horizonUS {
				end = horizonUS
			}
			s.act.Busy = append(s.act.Busy, Interval{Start: now, End: end})
			if now+dur > busyUntil {
				busyUntil = now + dur
			}
		}
		collision := len(winners) > 1
		for _, s := range winners {
			tm := s.st.Traffic
			if tm == nil {
				tm = Saturated{}
			}
			if collision {
				s.retries++
				if s.retries <= MaxRetries {
					// Exponential backoff, frame stays queued.
					s.cw = min(2*s.cw+1, CWMax)
					s.nextArrival = busyUntil
					continue
				}
				// Frame dropped after max retries.
			}
			s.retries = 0
			s.cw = CWMin
			s.nextArrival = busyUntil + tm.NextGapUS(r)
		}
		now = busyUntil
	}
	out := make([]*Activity, len(sts))
	for i, s := range sts {
		out[i] = s.act
	}
	return out
}
