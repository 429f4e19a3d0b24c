package rmi

// Sessions reports how many (client, stream) dedupe sessions the node's
// server is tracking — visible to tests only, so the package's external
// tests can assert what a client did or did not make the server remember.
func (n *Node) Sessions() int {
	n.srv.mu.Lock()
	defer n.srv.mu.Unlock()
	return len(n.srv.sessions)
}
