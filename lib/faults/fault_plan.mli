include module type of struct include Radio_sim.Fault_plan end
