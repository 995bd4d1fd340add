package core

import "firm/internal/detect"

// Localizer returns the controller's incremental localizer, for tests that
// compare its Candidates.
func (c *Controller) Localizer() *detect.Localizer { return c.loc }
