package serve

// Attach returns a handle on a job this client did not submit, for tests
// that must submit in-process (fault plans ride in Request.Options, which do
// not cross HTTP) and still read the result over the wire.
func (c *Client) Attach(id uint64) *RemoteJob { return &RemoteJob{c: c, id: id} }
