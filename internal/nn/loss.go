package nn

import "math"

// HuberLoss returns the Huber loss and its derivative d(loss)/d(pred) for a
// single prediction/target pair with transition point delta. The Huber loss
// is the standard choice for DQN TD errors because it bounds the gradient of
// outliers, which matters under the heavy-tailed UE-cost rewards of the
// mitigation MDP.
func HuberLoss(pred, target, delta float64) (loss, dPred float64) {
	diff := pred - target
	ad := math.Abs(diff)
	if ad <= delta {
		return 0.5 * diff * diff, diff
	}
	return delta * (ad - float64(0.5*delta)), delta * sign(diff)
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	if x > 0 {
		return 1
	}
	return 0
}
