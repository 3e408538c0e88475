package mobile

import "perdnn/internal/dnn"

// UploadOrder exposes the current plan's upload units to the external
// tests (shared with the client; read only).
func (c *Client) UploadOrder() [][]dnn.LayerID { return c.plan.UploadOrder }
