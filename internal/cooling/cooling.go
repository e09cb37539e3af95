// Package cooling models the Chilled Water Plant (CWP) and coolant
// distribution that kept Mira cool: two 1,500-ton chiller towers with a
// waterside economizer for winter free cooling, the external chilled-water
// loop feeding 48 under-floor heat exchangers, per-rack flow distribution
// through an impedance network with partial blockages, and the July 2016
// Theta cutover that raised the plant flow from ≈1250 to ≈1300 GPM while
// Theta's early testing dumped extra heat into the shared loop.
package cooling

import (
	"math/rand"
	"time"

	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/units"
	"mira/internal/weather"
)

// Plant-level constants (paper §II).
const (
	// ChillerCount and ChillerCapacity describe the CWP towers.
	ChillerCount = 2
	// ChillerCapacityTons per tower.
	ChillerCapacityTons units.TonsRefrigeration = 1500
	// SupplySetpoint is the chilled-water supply temperature the chillers
	// hold (the rack inlet ≈64°F).
	SupplySetpoint units.Fahrenheit = 64
	// EconomizerPenalty is how much warmer the supply runs on full free
	// cooling (the paper: environmental cooling is not as effective, so the
	// inlet temperature is slightly higher in the colder months).
	EconomizerPenalty units.Fahrenheit = 0.9
	// ThetaHeatPenalty is the loop temperature rise during Theta's early
	// testing (June 2016 – early 2017).
	ThetaHeatPenalty units.Fahrenheit = 1.6
	// PreThetaFlow and PostThetaFlow are Mira's plant flow rates around the
	// July 2016 impeller upgrade.
	PreThetaFlow  units.GPM = 1250
	PostThetaFlow units.GPM = 1300
	// ChillerCOP is the coefficient of performance of the chillers,
	// calibrated so that displacing them at full plant load saves the
	// paper's 17,820 kWh per day.
	ChillerCOP = 3.2
	// PumpTowerPower is the electrical draw of pumps and tower fans, paid
	// in both chiller and economizer mode.
	PumpTowerPower units.Watts = 180000
)

// DesignHeatLoad is the nominal heat load the free-cooling savings figure is
// quoted against (Mira's liquid-cooled heat at high utilization).
var DesignHeatLoad = units.MW(2.376)

// Plant models the CWP supply side.
type Plant struct {
	wx  *weather.Model
	rng *rand.Rand
}

// NewPlant creates a plant coupled to the given outdoor weather model.
func NewPlant(wx *weather.Model, seed int64) *Plant {
	return &Plant{wx: wx, rng: rand.New(rand.NewSource(seed))}
}

// EconomizerFraction returns how much of the plant load free cooling covers
// at time t, in [0, 1]: full below the economizer wet-bulb threshold, fading
// linearly to zero 8°F above it, and only during the December–March season
// in which the plant runs the economizer at all.
func (p *Plant) EconomizerFraction(t time.Time) float64 {
	if !timeutil.FreeCoolingSeason(t) {
		return 0
	}
	wb := float64(p.wx.At(t).WetBulb)
	threshold := float64(weather.EconomizerThreshold)
	switch {
	case wb <= threshold:
		return 1
	case wb >= threshold+8:
		return 0
	default:
		return 1 - (wb-threshold)/8
	}
}

// SupplyTemperature returns the chilled-water supply (rack inlet)
// temperature at time t. Free cooling runs slightly warm; Theta's testing
// period warms the shared loop further.
func (p *Plant) SupplyTemperature(t time.Time) units.Fahrenheit {
	temp := SupplySetpoint
	temp += units.Fahrenheit(p.EconomizerFraction(t) * float64(EconomizerPenalty))
	if !t.Before(timeutil.ThetaTestingStart) && t.Before(timeutil.ThetaTestingEnd) {
		temp += ThetaHeatPenalty
	}
	// Chiller control jitter.
	temp += units.Fahrenheit(p.rng.NormFloat64() * 0.18)
	return temp
}

// Power returns the plant's electrical draw while removing the given heat
// load at time t. The economizer displaces chiller compressor work but not
// pump/tower power.
func (p *Plant) Power(heat units.Watts, t time.Time) units.Watts {
	if heat < 0 {
		heat = 0
	}
	chillerShare := 1 - p.EconomizerFraction(t)
	compressor := units.Watts(float64(heat) / ChillerCOP * chillerShare)
	return compressor + PumpTowerPower
}

// FreeCoolingSavingsPerDay is the energy saved per day when 100% of CWP
// capacity comes from the economizer: the avoided compressor work at design
// load. The paper quotes 17,820 kWh/day.
func FreeCoolingSavingsPerDay() units.KilowattHours {
	compressor := units.Watts(float64(DesignHeatLoad) / ChillerCOP)
	return units.EnergyOver(compressor, 24)
}

// ColdSeasonDays is the December–March window length the paper's seasonal
// saving (2,174,040 kWh) is quoted over.
const ColdSeasonDays = 122

// FreeCoolingSavingsPerSeason is the energy saved by not operating the
// chillers through the cold months.
func FreeCoolingSavingsPerSeason() units.KilowattHours {
	return FreeCoolingSavingsPerDay() * ColdSeasonDays
}

// PlantFlow returns Mira's total coolant flow at time t: stepped up at the
// Theta cutover, with a mild operator-driven seasonal increase from June to
// December when utilization (and so heat) runs higher.
func PlantFlow(t time.Time) units.GPM {
	base := PreThetaFlow
	if !t.Before(timeutil.ThetaCutover) {
		base = PostThetaFlow
	}
	// Seasonal trim: +0 to +1.2% ramping July → December.
	yf := timeutil.YearFraction(t)
	if yf > 0.5 {
		base += units.GPM(float64(base) * 0.012 * (yf - 0.5) * 2)
	}
	return base
}

// FlowNetwork distributes the plant flow across the 48 rack heat
// exchangers. Under-floor pipe and filter blockages give each rack a static
// impedance weight; the paper measured up to 11% rack-to-rack difference.
type FlowNetwork struct {
	weight [topology.NumRacks]float64
	total  float64
	rng    *rand.Rand

	// plant memoizes PlantFlow at the instant plantNano: every rack of a
	// tick asks for the same instant, so the calendar arithmetic runs
	// once per tick.
	plant     units.GPM
	plantNano int64
	plantSet  bool
}

// NewFlowNetwork builds the distribution network. The seed shapes the
// blockage pattern.
func NewFlowNetwork(seed int64) *FlowNetwork {
	rng := rand.New(rand.NewSource(seed))
	n := &FlowNetwork{rng: rng}
	for i := range n.weight {
		// Uniform impedance spread of ±5.5% ⇒ max/min ≈ 1.11.
		n.weight[i] = 0.945 + 0.11*rng.Float64()
		n.total += n.weight[i]
	}
	return n
}

// RackFlow returns the flow delivered to one rack at time t, including
// small turbulent measurement-scale fluctuation.
func (n *FlowNetwork) RackFlow(r topology.RackID, t time.Time) units.GPM {
	if nano := t.UnixNano(); !n.plantSet || nano != n.plantNano {
		n.plant, n.plantNano, n.plantSet = PlantFlow(t), nano, true
	}
	share := n.weight[r.Index()] / n.total
	flow := float64(n.plant) * share
	flow *= 1 + 0.004*n.rng.NormFloat64()
	return units.GPM(flow)
}

// Weight returns the rack's impedance weight (≈1.0).
func (n *FlowNetwork) Weight(r topology.RackID) float64 { return n.weight[r.Index()] }

// HeatExchanger computes a rack's outlet coolant temperature from the inlet
// temperature, the heat dissipated into the internal loop, and the loop
// flow (paper Fig. 1: the under-floor HX couples the internal and external
// loops).
func HeatExchanger(inlet units.Fahrenheit, heat units.Watts, flow units.GPM) units.Fahrenheit {
	return units.OutletTemperature(inlet, heat, flow)
}
