package vm

// Resumes returns how many times the kernel has switched into p's
// coroutine.
func Resumes(p *Proc) int { return p.resumes }
