package serve

// JobHoldsDesign reports whether job id still references an inline
// design. It reads under the job's lock, which runJob takes after
// releasing the design, so a caller that has seen the job finish reads
// the released state.
func (s *Server) JobHoldsDesign(id string) bool {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.gd != nil
}
