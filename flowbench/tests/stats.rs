use lowpower_flowbench::stats::{busy_share, gmean, median, percentile, ratio};

#[test]
fn percentile_is_nearest_rank_with_its_sample_count() {
    let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let p90 = percentile(&xs, 90.0).unwrap();
    assert_eq!((p90.value, p90.samples), (90.0, 100));
    assert_eq!(percentile(&xs, 100.0).unwrap().value, 100.0);
    let small = percentile(&[3.0, 1.0, 2.0], 90.0).unwrap();
    assert_eq!((small.value, small.samples), (3.0, 3));
    assert_eq!(percentile(&[7.0], 50.0).unwrap().value, 7.0);
    assert!(percentile(&[], 50.0).is_none());
}

#[test]
fn median_averages_the_middle_pair() {
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn gmean_of_positive_values() {
    let g = gmean(&[1.0, 4.0, 16.0]).unwrap();
    assert!((g - 4.0).abs() < 1e-12, "{g}");
    assert_eq!(gmean(&[2.5]), Some(2.5));
    assert!(gmean(&[]).is_none());
    assert!(gmean(&[1.0, 0.0]).is_none());
    assert!(gmean(&[1.0, -2.0]).is_none());
    assert!(gmean(&[1.0, f64::NAN]).is_none());
}

#[test]
fn ratio_keeps_its_base() {
    let r = ratio(3.0, 12.0);
    assert_eq!((r.value, r.base), (0.25, 12.0));
    let empty = ratio(0.0, 0.0);
    assert_eq!((empty.value, empty.base), (0.0, 0.0));
}

#[test]
fn busy_share_over_threads_and_section_wall() {
    // Two workers, a 2 s section, 3 s of cell work: 75 % busy.
    assert_eq!(busy_share(&[1.0, 0.5, 1.5], 2, 2.0), 0.75);
    assert_eq!(busy_share(&[2.0], 1, 2.0), 1.0);
    assert_eq!(busy_share(&[], 2, 0.0), 0.0);
}
