pub mod burst;
pub mod churn;
pub mod trickle;
