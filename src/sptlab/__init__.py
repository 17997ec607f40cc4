"""Teacher-guided prescriptive pricing trees and their benchmark suite."""

from .dataset import (DataError, Dataset, PriceGrid, SaleHistory, explicit_grid,
                      filter_stores_min_sales, impute_last_at_store,
                      impute_mode_of_last_k, load_csv, load_sale_history,
                      percentile_grid, split_halves, write_csv)
from .teacher import (GbtConfig, GradientBoostedTeacher, OracleTeacher,
                      RevenueMatrix, TableTeacher, TeacherGridPolicy,
                      TeacherModel, auc, fit_gbt, load_table_teacher,
                      probability_matrix, revenue_matrix)
from .spt import (FitConfig, PolicyTree, export_tree, fit_spt, leaf_revenue,
                  single_leaf_tree, training_revenue, tree_from_json)
from .baselines import (OneVsAllPolicy, assign_treatments, constant_price_policy,
                        export_one_vs_all, fit_ct_one_vs_all, fit_naive_distill,
                        fit_pt, historical_policy_revenue, naive_training_mse,
                        one_vs_all_from_json)
from .synth import (SPEC_IDS, OraclePolicy, SyntheticSpec, fine_price_grid,
                    generate, make_spec, oracle_optimal_batch, oracle_teacher,
                    standard_normal_cdf, true_probability_batch)
from .evaluation import (RegretBoundParams, RegretCheck, expected_revenue,
                         hypercube_policy, policy_mse, regret_bound,
                         verify_regret_bound)
from .experiments import (EvaluationReport, ExperimentPlan, PlanError,
                          aggregate, load_plan, plan_from_dict,
                          read_results_csv, run_experiment, write_results_csv)
from .rng import CounterRng, derive_seed, standard_normal_ppf

__version__ = "0.1.0"
