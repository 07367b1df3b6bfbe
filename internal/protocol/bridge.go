package protocol

import (
	"fmt"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
)

// This file bridges the wire types to the scheduler's native types in the
// directions the server uses: requests in, grants out. The wire side is the
// strict one (closed enums, finite floats), so ToIM never fails while
// GrantFromResponse validates the scheduler-side ranges.

// ToIM converts a decoded wire Request into the scheduler's request type.
// The codec has already validated the enum ranges.
func (r Request) ToIM() im.Request {
	return im.Request{
		VehicleID: r.VehicleID,
		Seq:       int(r.Seq),
		Movement: intersection.MovementID{
			Approach: intersection.Approach(r.Approach),
			Lane:     int(r.Lane),
			Turn:     intersection.Turn(r.Turn),
		},
		CurrentSpeed: r.CurrentSpeed,
		DistToEntry:  r.DistToEntry,
		TransmitTime: r.TransmitTime,
		Committed:    r.Committed,
		ProposedToA:  r.ProposedToA,
		CrossSpeed:   r.CrossSpeed,
		Params: kinematics.Params{
			MaxSpeed:  r.MaxSpeed,
			MaxAccel:  r.MaxAccel,
			MaxDecel:  r.MaxDecel,
			Length:    r.Length,
			Width:     r.Width,
			Wheelbase: r.Wheelbase,
		},
	}
}

// GrantFromResponse converts a scheduler reply delivered at scheduler time
// t to vehicle id into its wire form.
func GrantFromResponse(t float64, id int64, resp im.Response) (Grant, error) {
	if resp.Kind < 0 || resp.Kind > im.RespReject {
		return Grant{}, fmt.Errorf("protocol: response kind %d outside [0,3]", resp.Kind)
	}
	if resp.Seq < 0 || int64(resp.Seq) > int64(^uint32(0)) {
		return Grant{}, fmt.Errorf("protocol: seq %d outside uint32", resp.Seq)
	}
	return Grant{
		T:           t,
		VehicleID:   id,
		RespKind:    uint8(resp.Kind),
		Seq:         uint32(resp.Seq),
		TargetSpeed: resp.TargetSpeed,
		ExecuteAt:   resp.ExecuteAt,
		ArriveAt:    resp.ArriveAt,
	}, nil
}
