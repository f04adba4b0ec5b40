function y = dse_early(m, n)
  % Each iteration's communicating store (two transposes) is overwritten
  % before it is read. The second store is live only on the return path:
  % falling through overwrites it.
  y = m;
  for k = 1:n
    y = ((m .* k)')';
    y = m .* k;
    if k == 3
      return;
    end
    y = m + k;
  end
end
